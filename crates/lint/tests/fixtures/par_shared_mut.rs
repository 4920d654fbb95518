//! Fixture: `par-shared-mut` — closures passed to the `par::map` fan-out
//! mutating captured shared state. Linted as `crates/core/src/fx.rs`.
use std::collections::BTreeSet;
use std::sync::Mutex;

pub fn lock_in_closure(units: &[u64], shared: &Mutex<Vec<u64>>) -> Vec<u64> {
    // FIRES: lock acquisition inside the fan-out closure
    par::map("fx", units, |u| {
        shared.lock().expect("poisoned").push(*u);
        *u
    })
}

pub fn captured_push(units: &[u64], sink: &mut Vec<u64>) -> Vec<u64> {
    // FIRES: mutation of a captured collection
    par::map("fx", units, |u| {
        sink.push(*u);
        *u * 2
    })
}

pub fn captured_assign(units: &[u64], total: &mut u64) -> Vec<u64> {
    // FIRES: compound assignment to a captured accumulator
    par::map("fx", units, move |u| {
        *total += *u;
        *u
    })
}

pub fn fully_qualified(units: &[u64], seen: &mut BTreeSet<u64>) -> Vec<u64> {
    // FIRES: the crate-qualified path is the same fan-out
    sos_obs::par::map("fx", units, |u| {
        seen.insert(*u);
        *u
    })
}

pub fn iterator_map_ok(units: &[u64], sink: &mut Vec<u64>) -> Vec<u64> {
    // quiet: a plain iterator `map` runs on the caller's thread
    units
        .iter()
        .map(|u| {
            sink.push(*u);
            *u
        })
        .collect()
}

pub fn per_item_ok(units: &[u64]) -> Vec<u64> {
    // quiet: the closure only touches its own locals; the join merges
    par::map("fx", units, |u| {
        let mut local = Vec::new();
        local.push(*u);
        local.pop().unwrap_or(0)
    })
}

pub fn justified(units: &[u64], log: &Mutex<Vec<u64>>) -> Vec<u64> {
    par::map("fx", units, |u| {
        // SUPPRESSED: progress log, never merged into results
        // sos-lint: allow(par-shared-mut) progress log only, not in the merged output
        log.lock().expect("poisoned").push(*u);
        *u
    })
}

mod par {
    pub fn map<T: Copy, R>(_label: &str, items: &[T], f: impl Fn(&T) -> R) -> Vec<R> {
        items.iter().map(|t| f(t)).collect()
    }
}
