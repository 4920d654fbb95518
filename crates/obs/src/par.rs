//! The workspace's one fan-out primitive, and its statistics.
//!
//! [`map`] is the only place that spawns worker threads: the experiment
//! grids, the within-round generation batches of 6Scan/DET, and the
//! sharded scan's `(protocol, shard)` tasks all go through it. It returns
//! results in slot order, so a caller's output never depends on the worker
//! count or on scheduling. For every call it measures how long each item
//! sat in the queue versus how long it ran, and which worker picked it
//! up; those measurements become one [`ParStats`] batch, recorded for the
//! manifest so scheduling pathologies (one giant straggler cell, idle
//! workers, queue convoys) are visible after the fact.

use std::sync::Mutex;

use crate::json::Json;

/// Timing for one work item (cell) through a [`map`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ParCell {
    /// Input-order index of the item.
    pub index: usize,
    /// Seconds between the call's start and a worker dequeuing the item.
    pub wait_s: f64,
    /// Seconds the closure ran.
    pub exec_s: f64,
    /// Worker thread (0-based) that executed the item.
    pub worker: usize,
}

/// Per-worker rollup for one [`map`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParWorker {
    /// Total seconds this worker spent executing closures.
    pub busy_s: f64,
    /// Number of items this worker executed.
    pub items: u64,
}

/// Complete statistics for one [`map`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParStats {
    /// Call-site label (e.g. the experiment the grid ran under).
    pub label: String,
    /// Worker threads the caller requested (at least 1). Calls with fewer
    /// items than workers still report the requested width, with the
    /// surplus workers idle, so utilization aggregates stay truthful.
    pub threads: usize,
    /// Call start, seconds since process clock origin (`wait_s`/`exec_s`
    /// in [`ParCell`] are relative to this, so `start_s + wait_s` places
    /// an item on the absolute trace timeline).
    pub start_s: f64,
    /// Wall-clock seconds for the whole call.
    pub wall_s: f64,
    /// Per-item timings, in input order.
    pub cells: Vec<ParCell>,
    /// Per-worker rollups, indexed by worker id.
    pub workers: Vec<ParWorker>,
}

impl ParStats {
    /// Fraction of total worker-seconds spent executing closures
    /// (`Σ busy / (threads × wall)`); 0 when the call did no work.
    pub fn utilization(&self) -> f64 {
        let capacity = self.threads as f64 * self.wall_s;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy_s).sum();
        (busy / capacity).min(1.0)
    }

    /// Serialize for the manifest.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("label", self.label.as_str());
        o.set("threads", self.threads);
        o.set("start_s", self.start_s);
        o.set("wall_s", self.wall_s);
        o.set("utilization", self.utilization());
        o.set(
            "cells",
            Json::Arr(
                self.cells
                    .iter()
                    .map(|c| {
                        let mut cell = Json::obj();
                        cell.set("index", c.index);
                        cell.set("wait_s", c.wait_s);
                        cell.set("exec_s", c.exec_s);
                        cell.set("worker", c.worker);
                        cell
                    })
                    .collect(),
            ),
        );
        o.set(
            "workers",
            Json::Arr(
                self.workers
                    .iter()
                    .map(|w| {
                        let mut worker = Json::obj();
                        worker.set("busy_s", w.busy_s);
                        worker.set("items", w.items);
                        worker
                    })
                    .collect(),
            ),
        );
        o
    }
}

static RECORDS: Mutex<Vec<ParStats>> = Mutex::new(Vec::new());

/// Map `f` over `items` on up to `workers` threads: `out[i] == f(items[i])`.
///
/// With `min(workers, items.len()) <= 1` every item runs inline on the
/// caller's thread; otherwise exactly that many scoped threads pull items
/// off a shared queue. A panic in `f` reaches the caller with its original
/// payload. Each call records one [`ParStats`] under `label`, whose
/// `threads` is the requested `workers` (at least 1).
pub fn map<T, R, F>(label: &str, items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let start_s = crate::now_s();
    let n = items.len();
    let threads = workers.max(1);
    let spawn = threads.min(n);
    let timed = |worker: usize, index: usize, item: T| {
        let t0 = crate::now_s();
        let r = f(item);
        let t1 = crate::now_s();
        (r, ParCell { index, wait_s: t0 - start_s, exec_s: t1 - t0, worker })
    };
    let done: Vec<(R, ParCell)> = if spawn <= 1 {
        items.into_iter().enumerate().map(|(i, item)| timed(0, i, item)).collect()
    } else {
        let queue = Mutex::new(items.into_iter().enumerate());
        let mut slots: Vec<Option<(R, ParCell)>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawn)
                .map(|w| {
                    let (queue, timed) = (&queue, &timed);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            // Bind first: the guard must drop before `timed` runs.
                            let next = queue.lock().expect("work queue lock").next();
                            let Some((i, item)) = next else { break local };
                            local.push(timed(w, i, item));
                        }
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => {
                        for (r, cell) in part {
                            let i = cell.index;
                            slots[i] = Some((r, cell));
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots.into_iter().map(|s| s.expect("every slot filled")).collect()
    };

    let mut rollup = vec![ParWorker { busy_s: 0.0, items: 0 }; threads];
    let (results, cells): (Vec<R>, Vec<ParCell>) = done.into_iter().unzip();
    for c in &cells {
        rollup[c.worker].busy_s += c.exec_s;
        rollup[c.worker].items += 1;
    }
    record(ParStats {
        label: label.to_string(),
        threads,
        start_s,
        wall_s: crate::now_s() - start_s,
        cells,
        workers: rollup,
    });
    results
}

/// Record one invocation's statistics for the manifest.
pub fn record(stats: ParStats) {
    RECORDS.lock().expect("par records").push(stats);
}

/// Copy of every recorded invocation, in completion order.
pub fn snapshot() -> Vec<ParStats> {
    RECORDS.lock().expect("par records").clone()
}

/// Forget all recorded invocations (test/reset support).
pub fn clear() {
    RECORDS.lock().expect("par records").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParStats {
        ParStats {
            label: "unit".into(),
            threads: 2,
            start_s: 0.0,
            wall_s: 2.0,
            cells: vec![
                ParCell { index: 0, wait_s: 0.0, exec_s: 1.0, worker: 0 },
                ParCell { index: 1, wait_s: 0.5, exec_s: 2.0, worker: 1 },
            ],
            workers: vec![
                ParWorker { busy_s: 1.0, items: 1 },
                ParWorker { busy_s: 2.0, items: 1 },
            ],
        }
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let s = sample();
        // 3 busy worker-seconds over 2 threads × 2 s = 0.75.
        assert!((s.utilization() - 0.75).abs() < 1e-9);
        let empty = ParStats {
            label: String::new(),
            threads: 0,
            start_s: 0.0,
            wall_s: 0.0,
            cells: vec![],
            workers: vec![],
        };
        assert_eq!(empty.utilization(), 0.0);
    }

    fn last_stats(label: &str) -> ParStats {
        snapshot().into_iter().rfind(|s| s.label == label).expect("invocation recorded")
    }

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 4, 8] {
            assert_eq!(map("order_test", items.clone(), workers, |x| x * 3 + 1), want, "workers={workers}");
        }
    }

    #[test]
    fn heavy_fanout_is_correct() {
        // Uneven item costs make workers interleave; slots still line up.
        let f = |x: u64| (0..(x % 7) * 500).fold(x, |a, b| a ^ b) + x;
        let items: Vec<u64> = (0..400).collect();
        assert_eq!(map("heavy_test", items.clone(), 8, f), items.into_iter().map(f).collect::<Vec<_>>());
    }

    #[test]
    fn stats_cover_every_item_once() {
        map("stats_test", (0..50u64).collect(), 4, |x| x + 1);
        let stats = last_stats("stats_test");
        assert_eq!(stats.threads, 4);
        let indices: Vec<usize> = stats.cells.iter().map(|c| c.index).collect();
        assert_eq!(indices, (0..50).collect::<Vec<_>>(), "cells in slot order");
        let executed: u64 = stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(executed, 50, "every item executed by exactly one worker");
        assert!(stats.cells.iter().all(|c| c.worker < 4));
    }

    #[test]
    fn sequential_fallback() {
        // One worker runs every item inline, on the caller's thread.
        let caller = std::thread::current().id();
        let out = map("inline_test", vec![1, 2, 3], 1, |x| (x + 1, std::thread::current().id()));
        assert_eq!(out, vec![(2, caller), (3, caller), (4, caller)]);
    }

    #[test]
    fn more_threads_than_items() {
        // A single item never pays for a thread, however many are offered;
        // two items with 16 offered spawn exactly two workers.
        let caller = std::thread::current().id();
        assert_eq!(map("one_item_test", vec![7], 16, |x| (x * x, std::thread::current().id())), vec![(49, caller)]);
        map("two_item_test", vec![1, 2], 16, |x| x);
        assert!(last_stats("two_item_test").cells.iter().all(|c| c.worker < 2));
    }

    #[test]
    fn empty_input() {
        assert!(map("empty_test", Vec::<i32>::new(), 4, |x| x).is_empty());
        let stats = last_stats("empty_test");
        assert!(stats.cells.is_empty());
        assert_eq!((stats.threads, stats.workers.len()), (4, 4), "requested width kept");
    }

    #[test]
    fn sequential_path_reports_one_worker() {
        for workers in [0, 1] {
            map("seq_test", vec![1, 2, 3], workers, |x| x);
            let stats = last_stats("seq_test");
            assert_eq!(stats.threads, 1, "workers={workers} means one");
            assert_eq!(stats.workers.len(), 1);
            assert_eq!(stats.workers[0].items, 3);
        }
    }

    #[test]
    fn degenerate_input_reports_requested_workers() {
        // One item with 16 workers requested runs inline, but the stats
        // keep the requested width with the surplus workers idle.
        map("degenerate_one", vec![7], 16, |x| x);
        let stats = last_stats("degenerate_one");
        assert_eq!(stats.threads, 16, "requested worker count is reported");
        assert_eq!(stats.workers.len(), 16);
        assert_eq!(stats.workers[0].items, 1);
        assert!(stats.workers[1..].iter().all(|w| w.items == 0 && w.busy_s == 0.0));
    }

    #[test]
    fn invocations_are_recorded_globally() {
        let count = || snapshot().iter().filter(|s| s.label == "global_test" && s.cells.len() == 4).count();
        let before = count();
        map("global_test", vec![1, 2, 3, 4], 2, |x| x);
        assert_eq!(count(), before + 1, "one record per call");
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map("panic_test", (0..8).collect::<Vec<u32>>(), 4, |x| {
                assert_ne!(x, 5, "boom at five");
                x
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("boom at five"), "original payload kept: {msg}");
    }

    #[test]
    fn serializes_cells_and_workers() {
        let j = sample().to_json();
        assert_eq!(j.get("threads"), Some(&Json::U64(2)));
        let Some(Json::Arr(cells)) = j.get("cells") else {
            panic!("cells array");
        };
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].get("worker"), Some(&Json::U64(1)));
    }
}
