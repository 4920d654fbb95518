//! The scan engine: dedup, blocklist, rate limit, retry, classify.
//!
//! Implements the paper's scanning methodology (§4.1–§4.2, Appendix A):
//! generated targets are deduplicated and scanned once; blocklisted
//! networks are never probed; scans are rate limited; ICMP Destination
//! Unreachable and TCP RST responses are counted but are **not** hits.
//!
//! Two execution paths share one preparation and one classification:
//!
//! - [`Scanner::scan`] — the sequential reference path. Every probe
//!   round-trips real packet bytes through [`Transport::send`].
//! - [`Scanner::scan_parallel`] — the sharded pipeline, over any number of
//!   protocols at once. The target list is deduplicated and
//!   blocklist-filtered **once**, partitioned into W shards **by prefix
//!   hash** (every fault domain and breaker domain lands wholly inside one
//!   shard, so per-prefix state never forks), and each `(protocol, shard)`
//!   task probes through its own cloned transport via
//!   [`Transport::probe_burst`], fanned out by [`sos_obs::par::map`], with
//!   a [`TokenBucket`] carved from the global pps budget in proportion to
//!   its load (so the aggregate still honors Appendix A, and modeled scan
//!   time does not depend on W). Shard hits carry their global input index
//!   and are merged by sorting on it — reports are bit-identical to the
//!   sequential path (asserted by tests, including under every fault
//!   schedule).
//!
//! Hostile-network machinery (PR 6): a [`RetryPolicy`] replaces the fixed
//! retry count (exponential backoff in *virtual* seconds with seeded
//! jitter), and an optional per-prefix circuit breaker
//! ([`BreakerConfig`]) stops probing prefixes that answer with nothing
//! but silence — skipped targets are reported as
//! [`ProbeOutcome::Skipped`], never probed, and never billed packets.

use std::collections::HashSet;
use std::net::Ipv6Addr;

use netmodel::Protocol;
use sos_obs::par;
use v6addr::PrefixSet;

use crate::metrics::EngineMetrics;
use crate::packet::build_probe;
use crate::provenance::{AttributionTable, Provenance, ProvenanceLog};
use crate::ratelimit::TokenBucket;
use crate::retry::{Admission, BreakerConfig, BreakerMap, RetryPolicy};
use crate::transport::{classify_response, Attempt, ProbeSpec, Transport};

/// Scanner policy knobs.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Source address stamped on probes.
    pub src: Ipv6Addr,
    /// Validation salt (ZMap-style stateless response validation).
    pub salt: u64,
    /// Retry/backoff policy. `RetryPolicy::fixed(n)` reproduces the
    /// historical `retries: n` behaviour (the paper's dealiasing probes
    /// use 3 total attempts; scan probes here default to 2 total).
    pub retry: RetryPolicy,
    /// Per-prefix circuit breaking; `None` probes every target
    /// unconditionally (the historical behaviour).
    pub breaker: Option<BreakerConfig>,
    /// Rate limit in packets/second; `None` disables limiting.
    pub rate_pps: Option<f64>,
    /// Networks that must never be probed (opt-out list, Appendix A).
    pub blocklist: PrefixSet,
    /// Drop responses that fail token validation.
    pub validate: bool,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            // sos-lint: allow(panic-unwrap) compile-time literal address always parses
            src: "2001:db8:5ca0::1".parse().expect("static addr"),
            salt: 0x5eed_5ca0,
            retry: RetryPolicy::fixed(1),
            breaker: None,
            rate_pps: Some(10_000.0),
            blocklist: PrefixSet::new(),
            validate: true,
        }
    }
}

impl ScannerConfig {
    /// The probe spec for one plain (untagged) scan probe.
    fn spec(&self, dst: Ipv6Addr, proto: Protocol) -> ProbeSpec {
        ProbeSpec {
            src: self.src,
            dst,
            proto,
            salt: self.salt,
            region: None,
            validate: self.validate,
        }
    }
}

/// Outcome of probing one target to completion (with retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Positive response — a hit.
    Hit,
    /// TCP RST — port closed; live device, but not a hit (§4.1).
    Rst,
    /// ICMP Destination Unreachable — not a hit (§4.1).
    Unreachable,
    /// Nothing came back.
    Silent,
    /// The target was never probed; no packet was transmitted.
    Skipped(SkipReason),
}

/// Why a target was skipped without transmitting anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The target's prefix breaker is open (too many consecutive
    /// silent/unreachable targets inside the prefix).
    BreakerOpen,
}

/// Everything [`Scanner::probe_target`] learned about one target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeResult {
    /// §4.1 classification (or [`ProbeOutcome::Skipped`]).
    pub outcome: ProbeOutcome,
    /// Region tag echoed by a hit's response payload, if any.
    pub tag: Option<u32>,
    /// Virtual seconds spent waiting on the rate limiter.
    pub limited_s: f64,
    /// Virtual seconds spent in retry backoff.
    pub backoff_s: f64,
    /// Probe packets transmitted (0 for skipped targets).
    pub attempts: u32,
}

/// Results of one scan invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanReport {
    /// Responsive targets (deduplicated, in probe order).
    pub hits: Vec<Ipv6Addr>,
    /// Targets actually probed after dedup/blocklist.
    pub probed: usize,
    /// Targets skipped as duplicates.
    pub duplicates: usize,
    /// Targets skipped by the blocklist.
    pub blocked: usize,
    /// RST responders (not hits).
    pub rsts: usize,
    /// Unreachable-reported targets (not hits).
    pub unreachables: usize,
    /// Silent targets.
    pub silent: usize,
    /// Targets skipped by an open circuit breaker (never probed, zero
    /// packets transmitted).
    pub skipped: usize,
    /// Retransmissions performed (attempts beyond each target's first).
    pub retries: u64,
    /// Probe packets transmitted (incl. retries).
    pub packets_sent: u64,
    /// Probes the hostile-network fault layer dropped or would have
    /// dropped (loss bursts, rate-limit policing, blackholes).
    pub faults_injected: u64,
    /// Circuit breakers that opened during this scan.
    pub breaker_opened: u64,
    /// Virtual microseconds spent in retry backoff (integer so shard
    /// merges are order-invariant; converted once per target).
    pub backoff_waited_us: u64,
    /// Virtual microseconds of throttle latency the fault layer imposed
    /// (integer, converted once per probe — see `Transport::throttled_us`).
    pub throttled_us: u64,
    /// Virtual seconds the rate limiter would have imposed. For sharded
    /// scans this is the **maximum across shards** — the shards wait
    /// concurrently, so the slowest shard models the wall time (each
    /// shard's budget is its share of the targets, making the aggregate
    /// rate equal the configured budget; see [`TokenBucket::share`]).
    pub limited_seconds: f64,
    /// Discovery attribution: probes/hits per provenance `(source,
    /// region)` key, when the scan was given a provenance map (empty
    /// otherwise — untagged scans pay nothing). Merged key-wise across
    /// shards, so the table is identical for every shard count.
    pub attribution: AttributionTable,
}

/// Convert a per-target/per-probe virtual-seconds figure to integer
/// microseconds. Applied at a fixed granularity (once per probe for
/// throttle delays, once per target for backoff), so every summation
/// order produces the same integer total — the property the sequential ≡
/// sharded bit-identity contract needs and f64 sums cannot give.
pub(crate) fn secs_to_us(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

impl ScanReport {
    /// Hit rate over probed targets.
    pub fn hit_rate(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.hits.len() as f64 / self.probed as f64
        }
    }

    /// Fold a shard's partial report into this one.
    ///
    /// Exhaustively destructured on purpose: adding a field to
    /// `ScanReport` without deciding its merge rule here is a compile
    /// error, and the `report_invariants` integration test asserts the
    /// decided rules hold (every numeric field is either shard-summed,
    /// max-merged with a written rationale, or parent-owned).
    pub fn absorb_shard(&mut self, shard: ScanReport) {
        let ScanReport {
            hits,
            probed,
            duplicates,
            blocked,
            rsts,
            unreachables,
            silent,
            skipped,
            retries,
            packets_sent,
            faults_injected,
            breaker_opened,
            backoff_waited_us,
            throttled_us,
            limited_seconds,
            attribution,
        } = shard;
        self.hits.extend(hits);
        self.probed += probed;
        // duplicates/blocked are parent-owned: preparation happens once,
        // before sharding, so shard partials always carry zero.
        self.duplicates += duplicates;
        self.blocked += blocked;
        self.rsts += rsts;
        self.unreachables += unreachables;
        self.silent += silent;
        self.skipped += skipped;
        self.retries += retries;
        self.packets_sent += packets_sent;
        self.faults_injected += faults_injected;
        self.breaker_opened += breaker_opened;
        self.backoff_waited_us += backoff_waited_us;
        self.throttled_us += throttled_us;
        // max, not sum: shards wait concurrently (see field doc).
        self.limited_seconds = self.limited_seconds.max(limited_seconds);
        // keyed sum: merge order never changes a BTreeMap fold.
        self.attribution.merge(&attribution);
    }

    /// Fold a *sequential* round's report into this one (campaign
    /// checkpoint rounds run one after another, so `limited_seconds`
    /// adds instead of max-merging; everything else matches
    /// [`Self::absorb_shard`]).
    pub(crate) fn absorb_round(&mut self, round: ScanReport) {
        let limited = round.limited_seconds;
        let before = self.limited_seconds;
        self.absorb_shard(round);
        self.limited_seconds = before + limited;
    }
}

/// The prefix length the sharded pipeline partitions targets by: coarse
/// enough that no active fault domain or breaker domain spans two shards
/// (which would fork their per-prefix virtual clocks and break
/// bit-identity with the sequential path).
fn shard_partition_len<T: Transport>(transport: &T, breaker: Option<&BreakerConfig>) -> u8 {
    let mut len = 48u8;
    if let Some(f) = transport.fault_prefix_len() {
        len = len.min(f.clamp(1, 128));
    }
    if let Some(b) = breaker {
        len = len.min(b.effective_prefix_len());
    }
    len
}

/// Which shard owns a prefix-domain value (the address's top
/// `partition_len` bits). Deterministic hash, uniform-ish across shards.
#[inline]
fn shard_of_domain(domain: u128, shards: usize) -> usize {
    let h = v6addr::splitmix64((domain as u64) ^ ((domain >> 64) as u64).rotate_left(32));
    (h % shards.max(1) as u64) as usize
}

/// Which shard owns an address.
#[inline]
fn shard_of(addr: u128, partition_len: u8, shards: usize) -> usize {
    let domain = if partition_len >= 128 {
        addr
    } else {
        addr >> (128 - u32::from(partition_len))
    };
    shard_of_domain(domain, shards)
}

/// Probe one prepared (already deduplicated, unblocked) slice of
/// `(global index, target)` pairs through `transport.probe_burst`,
/// tallying a partial [`ScanReport`] plus index-tagged hits (the caller
/// restores global hit order by sorting on the index). This is the
/// per-shard worker loop; with the scanner's own transport, limiter, and
/// breaker it is also the `shards == 1` path.
///
/// `prov`, when present, maps **global prepared index → provenance tag**
/// (the full prepared-length slice, not the shard's slice); each probed
/// target and each hit is tallied into the partial report's attribution
/// table. Attribution writes touch nothing the probe path reads, so a
/// tagged scan's hits and counters are bit-identical to an untagged one.
#[allow(clippy::too_many_arguments)]
fn scan_shard<T: Transport>(
    cfg: &ScannerConfig,
    transport: &mut T,
    limiter: &mut Option<TokenBucket>,
    breaker: &mut Option<BreakerMap>,
    metrics: &EngineMetrics,
    targets: &[(u32, Ipv6Addr)],
    proto: Protocol,
    prov: Option<&[Provenance]>,
) -> (ScanReport, Vec<(u32, Ipv6Addr)>) {
    let mut report = ScanReport::default();
    let mut hits: Vec<(u32, Ipv6Addr)> = Vec::new();
    // Shard-local tallies, flushed into `metrics` once at the end: the
    // totals are identical, but the hot loop skips the mirrored atomic
    // counters per packet.
    let (mut retries, mut malformed, mut invalid) = (0u64, 0u64, 0u64);
    let (mut skipped, mut backoff_us) = (0u64, 0u64);
    let faults_at_entry = transport.faults_injected();
    let throttled_at_entry = transport.throttled_us();
    let opened_at_entry = breaker.as_ref().map_or(0, |b| b.opened());
    for &(idx, dst) in targets {
        if let Some(b) = breaker.as_mut() {
            if b.admit(dst, proto) == Admission::Skip {
                report.skipped += 1;
                skipped += 1;
                continue;
            }
        }
        report.probed += 1;
        if let Some(p) = prov.and_then(|ps| ps.get(idx as usize)) {
            report.attribution.record_probe(*p);
        }
        let spec = cfg.spec(dst, proto);
        let budget = cfg.retry.attempts_allowed(cfg.salt, u128::from(dst));
        let burst = transport.probe_burst(&spec, budget);
        report.packets_sent += u64::from(burst.used);
        retries += u64::from(burst.used.saturating_sub(1));
        malformed += u64::from(burst.malformed);
        invalid += u64::from(burst.invalid);
        // Tokens and backoff are replayed after the burst rather than
        // around each packet: the bucket runs on virtual time, so each
        // wait depends only on the advance/acquire sequence — which is
        // exactly the wire path's backoff-advance-then-acquire-then-send
        // ordering, so the totals match bit for bit.
        let mut target_backoff = 0.0;
        for attempt in 0..burst.used {
            if attempt > 0 {
                let d = cfg.retry.delay_before(attempt, cfg.salt, u128::from(dst));
                if d > 0.0 {
                    target_backoff += d;
                    if let Some(tb) = limiter.as_mut() {
                        tb.advance(d);
                    }
                }
            }
            if let Some(tb) = limiter.as_mut() {
                let wait = tb.acquire();
                if wait > 0.0 {
                    metrics.stall(wait);
                }
                report.limited_seconds += wait;
            }
        }
        if target_backoff > 0.0 {
            let us = secs_to_us(target_backoff);
            report.backoff_waited_us += us;
            backoff_us += us;
        }
        match burst.verdict {
            Attempt::Hit => {
                if let Some(p) = prov.and_then(|ps| ps.get(idx as usize)) {
                    report.attribution.record_hit(*p);
                }
                hits.push((idx, dst));
            }
            Attempt::Rst => report.rsts += 1,
            Attempt::Unreachable => report.unreachables += 1,
            _ => report.silent += 1,
        }
        if let Some(b) = breaker.as_mut() {
            let failure = !matches!(burst.verdict, Attempt::Hit | Attempt::Rst);
            b.record(dst, proto, failure);
        }
    }
    report.retries = retries;
    report.faults_injected = transport.faults_injected() - faults_at_entry;
    report.throttled_us = transport.throttled_us() - throttled_at_entry;
    report.breaker_opened = breaker.as_ref().map_or(0, |b| b.opened()) - opened_at_entry;
    metrics.packets_sent.add(report.packets_sent);
    metrics.retries.add(retries);
    metrics.drop_malformed.add(malformed);
    metrics.drop_validation.add(invalid);
    metrics.hits.add(hits.len() as u64);
    // Per-protocol labeled series: one flush per shard, never per packet.
    metrics.proto_packets(proto).add(report.packets_sent);
    metrics.proto_hits(proto).add(hits.len() as u64);
    metrics.rsts.add(report.rsts as u64);
    metrics.unreachables.add(report.unreachables as u64);
    metrics.silent.add(report.silent as u64);
    metrics.faults_injected.add(report.faults_injected);
    metrics.breaker_opened.add(report.breaker_opened);
    metrics.breaker_skipped.add(skipped);
    metrics.backoff_waited_us.add(backoff_us);
    (report, hits)
}

/// The scanner: a [`Transport`] plus policy.
#[derive(Debug)]
pub struct Scanner<T: Transport> {
    cfg: ScannerConfig,
    transport: T,
    limiter: Option<TokenBucket>,
    breaker: Option<BreakerMap>,
    metrics: EngineMetrics,
    /// Packets transmitted by shard-cloned transports (not visible in
    /// `transport.packets_sent()`); folded into [`Scanner::packets_sent`].
    shard_packets: u64,
}

impl<T: Transport> Scanner<T> {
    /// Create a scanner over `transport`.
    pub fn new(cfg: ScannerConfig, transport: T) -> Self {
        let limiter = cfg.rate_pps.map(|r| TokenBucket::new(r, r));
        let breaker = cfg.breaker.map(BreakerMap::new);
        Scanner {
            cfg,
            transport,
            limiter,
            breaker,
            metrics: EngineMetrics::new(),
            shard_packets: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScannerConfig {
        &self.cfg
    }

    /// This scanner's event accounting (also mirrored into the global
    /// `sos-obs` registry for the run manifest).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The rate limiter, when one is configured.
    pub fn limiter(&self) -> Option<&TokenBucket> {
        self.limiter.as_ref()
    }

    /// The per-prefix circuit-breaker state, when breaking is configured.
    pub fn breaker(&self) -> Option<&BreakerMap> {
        self.breaker.as_ref()
    }

    /// Access the underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Mutable state handles for campaign checkpoint/restore.
    pub(crate) fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    pub(crate) fn limiter_mut(&mut self) -> &mut Option<TokenBucket> {
        &mut self.limiter
    }

    pub(crate) fn breaker_mut(&mut self) -> &mut Option<BreakerMap> {
        &mut self.breaker
    }

    /// Deduplicate and blocklist-filter a target stream once, recording
    /// the skips in `report`. Returns the targets to probe, in
    /// first-occurrence order, plus each one's index in the *original*
    /// (pre-dedup) stream — the alignment a [`ProvenanceLog`] recorded in
    /// emission order needs. `record` controls whether the drops hit the
    /// metrics registry (a checkpoint resume re-prepares silently: the
    /// original run already counted them, and the restored counter
    /// snapshot carries them).
    pub(crate) fn prepare_mapped(
        &self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        record: bool,
        report: &mut ScanReport,
    ) -> (Vec<Ipv6Addr>, Vec<u32>) {
        let metrics = record.then_some(&self.metrics);
        let targets = targets.into_iter();
        let mut prepared = Vec::with_capacity(targets.size_hint().0);
        let mut origin = Vec::new();
        let mut seen: HashSet<u128> = HashSet::new();
        for (i, dst) in targets.enumerate() {
            if !seen.insert(u128::from(dst)) {
                report.duplicates += 1;
                if let Some(m) = metrics {
                    m.drop_duplicate.inc();
                }
                continue;
            }
            if self.cfg.blocklist.contains_addr(dst) {
                report.blocked += 1;
                if let Some(m) = metrics {
                    m.drop_blocklist.inc();
                }
                continue;
            }
            prepared.push(dst);
            origin.push(i as u32);
        }
        (prepared, origin)
    }

    /// Total packets this scanner has transmitted, including packets sent
    /// by shard workers during parallel scans.
    pub fn packets_sent(&self) -> u64 {
        self.transport.packets_sent() + self.shard_packets
    }

    /// Probe one target to completion, optionally with a region tag.
    ///
    /// Applies the full per-target policy stack: breaker admission, the
    /// retry/backoff schedule (backoff advances the limiter's virtual
    /// clock), rate limiting, and §4.1 classification — the identical
    /// sequence `scan_shard` replays, so both paths land on the same
    /// virtual timeline.
    pub fn probe_target(&mut self, dst: Ipv6Addr, proto: Protocol, region: Option<u32>) -> ProbeResult {
        if let Some(b) = self.breaker.as_mut() {
            if b.admit(dst, proto) == Admission::Skip {
                self.metrics.breaker_skipped.inc();
                return ProbeResult {
                    outcome: ProbeOutcome::Skipped(SkipReason::BreakerOpen),
                    tag: None,
                    limited_s: 0.0,
                    backoff_s: 0.0,
                    attempts: 0,
                };
            }
        }
        let spec = ProbeSpec {
            region,
            ..self.cfg.spec(dst, proto)
        };
        let allowed = self.cfg.retry.attempts_allowed(self.cfg.salt, u128::from(dst));
        let faults_at_entry = self.transport.faults_injected();
        let mut waited = 0.0;
        let mut backoff = 0.0;
        let mut attempts = 0u32;
        let mut verdict = ProbeOutcome::Silent;
        let mut tag = None;
        for attempt in 0..allowed {
            if attempt > 0 {
                self.metrics.retries.inc();
                let d = self.cfg.retry.delay_before(attempt, self.cfg.salt, u128::from(dst));
                if d > 0.0 {
                    // sos-lint: allow(det-float-reduce) sequential per-attempt accumulation; order fixed by the probe stream
                    backoff += d;
                    if let Some(tb) = self.limiter.as_mut() {
                        tb.advance(d);
                    }
                }
            }
            if let Some(tb) = self.limiter.as_mut() {
                let wait = tb.acquire();
                if wait > 0.0 {
                    self.metrics.stall(wait);
                }
                // sos-lint: allow(det-float-reduce) virtual-clock wait total; single-threaded, order total
                waited += wait;
            }
            let probe = build_probe(self.cfg.src, dst, proto, self.cfg.salt, region);
            self.metrics.packets_sent.inc();
            attempts += 1;
            let Some(raw) = self.transport.send(&probe) else {
                continue;
            };
            match classify_response(&spec, &raw) {
                (Attempt::Hit, t) => {
                    verdict = ProbeOutcome::Hit;
                    tag = t;
                    break;
                }
                (Attempt::Rst, _) => {
                    verdict = ProbeOutcome::Rst;
                    break;
                }
                (Attempt::Unreachable, _) => {
                    verdict = ProbeOutcome::Unreachable;
                    break;
                }
                (Attempt::Malformed, _) => self.metrics.drop_malformed.inc(),
                (Attempt::Invalid, _) => self.metrics.drop_validation.inc(),
                (Attempt::Silent | Attempt::Inapplicable, _) => {}
            }
        }
        self.metrics
            .faults_injected
            .add(self.transport.faults_injected() - faults_at_entry);
        if backoff > 0.0 {
            self.metrics.backoff_waited_us.add(secs_to_us(backoff));
        }
        if let Some(b) = self.breaker.as_mut() {
            let failure = !matches!(verdict, ProbeOutcome::Hit | ProbeOutcome::Rst);
            if b.record(dst, proto, failure) {
                self.metrics.breaker_opened.inc();
            }
        }
        ProbeResult {
            outcome: verdict,
            tag,
            limited_s: waited,
            backoff_s: backoff,
            attempts,
        }
    }

    /// Scan a target list on one protocol, with dedup and blocklisting.
    /// This is the sequential reference path: every probe round-trips real
    /// packet bytes.
    pub fn scan(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        proto: Protocol,
    ) -> ScanReport {
        let start_packets = self.transport.packets_sent();
        let start_faults = self.transport.faults_injected();
        let start_throttled = self.transport.throttled_us();
        let start_opened = self.breaker.as_ref().map_or(0, |b| b.opened());
        let mut report = ScanReport::default();
        let (prepared, _) = self.prepare_mapped(targets, true, &mut report);
        for dst in prepared {
            let res = self.probe_target(dst, proto, None);
            report.limited_seconds += res.limited_s;
            report.backoff_waited_us += secs_to_us(res.backoff_s);
            report.retries += u64::from(res.attempts.saturating_sub(1));
            match res.outcome {
                ProbeOutcome::Hit => {
                    self.metrics.hits.inc();
                    report.probed += 1;
                    report.hits.push(dst);
                }
                ProbeOutcome::Rst => {
                    self.metrics.rsts.inc();
                    report.probed += 1;
                    report.rsts += 1;
                }
                ProbeOutcome::Unreachable => {
                    self.metrics.unreachables.inc();
                    report.probed += 1;
                    report.unreachables += 1;
                }
                ProbeOutcome::Silent => {
                    self.metrics.silent.inc();
                    report.probed += 1;
                    report.silent += 1;
                }
                ProbeOutcome::Skipped(_) => {
                    report.skipped += 1;
                }
            }
        }
        report.packets_sent = self.transport.packets_sent() - start_packets;
        report.faults_injected = self.transport.faults_injected() - start_faults;
        report.throttled_us = self.transport.throttled_us() - start_throttled;
        report.breaker_opened = self.breaker.as_ref().map_or(0, |b| b.opened()) - start_opened;
        // Per-protocol labeled series, flushed once per scan like the
        // sharded path flushes once per shard — totals stay bit-identical.
        self.metrics.proto_packets(proto).add(report.packets_sent);
        self.metrics.proto_hits(proto).add(report.hits.len() as u64);
        sos_obs::debug!(
            "scan {proto:?}: {} probed, {} hits, {} rst, {} unreach, {} silent, \
             {} skipped, {} pkts, {:.3}s limited",
            report.probed,
            report.hits.len(),
            report.rsts,
            report.unreachables,
            report.silent,
            report.skipped,
            report.packets_sent,
            report.limited_seconds,
        );
        report
    }
}

impl<T: Transport + Clone + Send> Scanner<T> {
    /// The sharded pipeline: scan a target list on every protocol in
    /// `protocols`, each split `shards` ways. The list is deduplicated and
    /// blocklist-filtered once, then every `(protocol, shard)` pair runs as
    /// one task with its own transport clone and a load-proportional slice
    /// of the pps budget. Reports come back in protocol order, each
    /// bit-identical to a sequential [`Scanner::scan`] of the same list.
    ///
    /// `prov` is the provenance log a generator recorded alongside
    /// `targets` (in the same emission order). When it is recording, each
    /// report's [`ScanReport::attribution`] tallies probes and hits per
    /// `(source, region)`; hits, counters and probe behaviour are the same
    /// either way — attribution is bookkeeping on the side.
    pub fn scan_parallel(
        &mut self,
        targets: impl IntoIterator<Item = Ipv6Addr>,
        protocols: &[Protocol],
        shards: usize,
        prov: Option<&ProvenanceLog>,
    ) -> Vec<(Protocol, ScanReport)> {
        let shards = shards.max(1);
        let _span = sos_obs::span_detail(
            "scan_parallel",
            format!("protos={} shards={shards}", protocols.len()),
        );
        let mut template = ScanReport::default();
        let (prepared, origin) = self.prepare_mapped(targets, true, &mut template);
        let indexed: Vec<(u32, Ipv6Addr)> = prepared
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i as u32, a))
            .collect();
        let tags = prov.filter(|log| log.is_enabled()).map(|log| log.by_prepared(&origin));
        let mut out = self.scan_prepared(&indexed, protocols, shards, tags.as_deref());
        for (_, report) in &mut out {
            // Preparation happened once, above; every per-protocol report
            // carries the same dedup/blocklist accounting.
            report.duplicates += template.duplicates;
            report.blocked += template.blocked;
        }
        out
    }

    /// Scan an already-prepared (deduplicated, unblocked, globally
    /// indexed) target list. This is the shared back half of
    /// [`Scanner::scan_parallel`] and the campaign checkpoint rounds:
    /// targets are partitioned across shards **by prefix hash** (never
    /// round-robin), so every fault domain and breaker domain lands wholly
    /// inside one shard and per-prefix virtual clocks never fork.
    ///
    /// `prov` maps global prepared indices to provenance tags (see
    /// [`scan_shard`]); `None` scans untagged.
    pub(crate) fn scan_prepared(
        &mut self,
        prepared: &[(u32, Ipv6Addr)],
        protocols: &[Protocol],
        shards: usize,
        prov: Option<&[Provenance]>,
    ) -> Vec<(Protocol, ScanReport)> {
        let shards = shards.max(1);
        let workers = protocols.len() * shards;
        // A single task runs on the scanner's own transport, persistent
        // limiter, and breaker map, exactly like `scan` (but via the fast
        // path). Otherwise every (protocol, shard) task gets a transport
        // clone, a limiter sized to its load, and its breaker slice.
        let single = protocols.len() == 1 && (shards == 1 || prepared.len() <= 1);
        let mut parts: Vec<Vec<(u32, Ipv6Addr)>> = Vec::new();
        let mut owned: Vec<(T, Option<TokenBucket>, Option<BreakerMap>)> = Vec::new();
        if !single {
            // Partition by prefix hash: every target whose address shares
            // the top `partition_len` bits lands in the same shard, in
            // input order.
            let partition_len = shard_partition_len(&self.transport, self.cfg.breaker.as_ref());
            parts = vec![Vec::new(); shards];
            for &(idx, addr) in prepared {
                // shard_of reduces modulo `shards`, so the index is in range
                parts[shard_of(u128::from(addr), partition_len, shards)].push((idx, addr));
            }
            // Every task continues this scanner's per-flow attempt history
            // (and per-domain fault clocks) for its own disjoint flows.
            let total = protocols.len() * prepared.len();
            owned = self
                .split_breakers(protocols, shards, partition_len)
                .into_iter()
                .enumerate()
                .map(|(i, breaker)| {
                    let load = parts[i % shards].len(); // i % shards < parts.len()
                    let limiter = self.cfg.rate_pps.and_then(|r| TokenBucket::share(r, r, load, total));
                    (self.transport.shard_clone(), limiter, breaker)
                })
                .collect();
        }

        let tasks: Vec<ShardTask<'_, T>> = if single {
            vec![ShardTask {
                proto: protocols[0],
                shard: 0,
                targets: prepared,
                transport: &mut self.transport,
                limiter: &mut self.limiter,
                breaker: &mut self.breaker,
            }]
        } else {
            owned
                .iter_mut()
                .enumerate()
                .map(|(i, (transport, limiter, breaker))| ShardTask {
                    proto: protocols[i / shards], // i < protocols.len() * shards
                    shard: i % shards,
                    targets: &parts[i % shards], // i % shards < parts.len()
                    transport,
                    limiter,
                    breaker,
                })
                .collect()
        };
        let (cfg, metrics) = (&self.cfg, &self.metrics);
        let results = par::map("scan_parallel", tasks, workers, |t| {
            let _s = sos_obs::span_detail(
                "scan_shard",
                format!("proto={:?} shard={} targets={}", t.proto, t.shard, t.targets.len()),
            );
            scan_shard(cfg, t.transport, t.limiter, t.breaker, metrics, t.targets, t.proto, prov)
        });

        // Fold every clone's cross-target state back so later scans (and
        // campaign checkpoints) continue the same clocks.
        for (transport, _, task_breaker) in owned {
            self.transport.absorb_shard(transport);
            if let (Some(parent), Some(tb)) = (self.breaker.as_mut(), task_breaker) {
                parent.absorb(tb);
            }
        }
        let per_proto = if single { 1 } else { shards };
        let mut results = results.into_iter();
        let mut out: Vec<(Protocol, ScanReport)> = Vec::with_capacity(protocols.len());
        for &proto in protocols {
            let mut report = ScanReport::default();
            let mut hits: Vec<(u32, Ipv6Addr)> = Vec::new();
            for (partial, shard_hits) in results.by_ref().take(per_proto) {
                if !single {
                    self.shard_packets += partial.packets_sent;
                }
                hits.extend(shard_hits);
                report.absorb_shard(partial);
            }
            // Restore global input order across shards.
            hits.sort_unstable_by_key(|&(i, _)| i);
            report.hits = hits.into_iter().map(|(_, a)| a).collect();
            sos_obs::debug!(
                "scan_parallel {proto:?} x{shards}: {} probed, {} skipped, {} hits, {} pkts",
                report.probed,
                report.skipped,
                report.hits.len(),
                report.packets_sent,
            );
            out.push((proto, report));
        }
        out
    }

    /// Route the scanner's breaker state into one slice per `(protocol,
    /// shard)` task, in task order. Entries for protocols not scanned here
    /// stay behind on the parent map; counters stay on the parent so
    /// absorbing a slice back adds only deltas. Yields `None` per task
    /// when breaking is off.
    fn split_breakers(
        &mut self,
        protocols: &[Protocol],
        shards: usize,
        partition_len: u8,
    ) -> Vec<Option<BreakerMap>> {
        let tasks = protocols.len() * shards;
        let Some(parent) = self.breaker.as_mut() else {
            return vec![None; tasks];
        };
        let bcfg = *parent.config();
        let blen = bcfg.effective_prefix_len();
        let mut grid: Vec<BreakerMap> = (0..tasks).map(|_| BreakerMap::new(bcfg)).collect();
        let mut keep = Vec::new();
        for (key, state) in parent.drain_entries() {
            let (domain, pidx) = key;
            let Some(pi) = protocols.iter().position(|p| p.index() as u8 == pidx) else {
                keep.push((key, state));
                continue;
            };
            // Breaker domains are at least as fine as the partition
            // (shard_partition_len mins over the breaker length), so
            // truncating the domain to the partition prefix routes it to
            // the same shard as every address inside it.
            let si = shard_of_domain(domain >> u32::from(blen - partition_len), shards);
            // pi < protocols.len() and si < shards, so the grid index is in range
            grid[pi * shards + si].insert_entries([(key, state)]);
        }
        parent.insert_entries(keep);
        grid.into_iter().map(Some).collect()
    }
}

/// One `(protocol, shard)` task of a sharded scan: the targets it owns and
/// the mutable state it probes with — a transport clone, a load-sized
/// limiter and a breaker slice, or the scanner's own state when the scan
/// is a single task.
struct ShardTask<'a, T> {
    proto: Protocol,
    shard: usize,
    targets: &'a [(u32, Ipv6Addr)],
    transport: &'a mut T,
    limiter: &'a mut Option<TokenBucket>,
    breaker: &'a mut Option<BreakerMap>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use netmodel::{World, WorldConfig};
    use std::sync::Arc;

    fn scanner() -> (Scanner<SimTransport>, Arc<World>) {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(3),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        (Scanner::new(cfg, SimTransport::new(world.clone())), world)
    }

    fn live_hosts(world: &World, proto: Protocol, n: usize) -> Vec<Ipv6Addr> {
        world
            .hosts()
            .iter()
            .filter(|(a, r)| r.responds(proto) && !world.is_aliased(*a))
            .map(|(a, _)| a)
            .take(n)
            .collect()
    }

    #[test]
    fn scan_finds_live_hosts() {
        let (mut s, w) = scanner();
        let targets = live_hosts(&w, Protocol::Icmp, 50);
        let report = s.scan(targets.clone(), Protocol::Icmp);
        assert_eq!(report.probed, targets.len());
        // with 4 attempts and 1% loss, missing any is very unlikely
        assert_eq!(report.hits.len(), targets.len());
        assert!(report.packets_sent >= targets.len() as u64);
    }

    #[test]
    fn duplicates_are_probed_once() {
        let (mut s, w) = scanner();
        let mut targets = live_hosts(&w, Protocol::Icmp, 5);
        targets.extend(targets.clone());
        let report = s.scan(targets, Protocol::Icmp);
        assert_eq!(report.probed, 5);
        assert_eq!(report.duplicates, 5);
    }

    #[test]
    fn blocklist_is_honored() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let victims = live_hosts(&world, Protocol::Icmp, 3);
        let mut blocklist = PrefixSet::new();
        for v in &victims {
            blocklist.insert(v6addr::Prefix::new(*v, 128));
        }
        let cfg = ScannerConfig {
            blocklist,
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let report = s.scan(victims.clone(), Protocol::Icmp);
        assert_eq!(report.blocked, victims.len());
        assert_eq!(report.probed, 0);
        assert_eq!(report.packets_sent, 0, "blocked targets get zero packets");
    }

    #[test]
    fn rsts_and_unreachables_are_not_hits() {
        let (mut s, w) = scanner();
        // Find a live host *without* TCP80: probing it elicits RST or
        // silence, never a hit.
        let closed: Vec<Ipv6Addr> = w
            .hosts()
            .iter()
            .filter(|(a, r)| {
                !r.churned
                    && !r.ports.contains(Protocol::Tcp80)
                    && r.responds_any()
                    && !w.is_aliased(*a)
            })
            .map(|(a, _)| a)
            .take(40)
            .collect();
        assert!(!closed.is_empty());
        let report = s.scan(closed.clone(), Protocol::Tcp80);
        assert!(report.hits.is_empty(), "closed ports must not be hits");
        assert_eq!(report.rsts + report.silent, closed.len());
        assert!(report.rsts > 0, "some devices send RSTs");
    }

    #[test]
    fn churned_hosts_are_silent() {
        let (mut s, w) = scanner();
        let dead: Vec<Ipv6Addr> = w
            .hosts()
            .iter()
            .filter(|(a, r)| r.churned && !w.is_aliased(*a))
            .map(|(a, _)| a)
            .take(20)
            .collect();
        let report = s.scan(dead.clone(), Protocol::Icmp);
        assert!(report.hits.is_empty());
        assert_eq!(report.silent, dead.len());
    }

    #[test]
    fn retries_overcome_base_loss() {
        // With 1% loss and 4 attempts, 500 live hosts should all answer.
        let (mut s, w) = scanner();
        let targets = live_hosts(&w, Protocol::Icmp, 500);
        let report = s.scan(targets.clone(), Protocol::Icmp);
        assert_eq!(report.hits.len(), targets.len());
    }

    #[test]
    fn hit_rate_computation() {
        let mut r = ScanReport::default();
        assert_eq!(r.hit_rate(), 0.0);
        r.probed = 10;
        r.hits = vec!["::1".parse().unwrap(); 3];
        assert!((r.hit_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rate_limiter_accumulates_virtual_time() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets = live_hosts(&world, Protocol::Icmp, 30);
        let cfg = ScannerConfig {
            rate_pps: Some(10.0), // absurdly slow to force waiting
            retry: RetryPolicy::fixed(0),
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let report = s.scan(targets, Protocol::Icmp);
        assert!(report.limited_seconds > 0.0);
    }

    /// A mixed workload (live, dead, closed, duplicated, blocklisted,
    /// unreachable-emitting targets) for the identity tests.
    fn mixed_targets(w: &World) -> (Vec<Ipv6Addr>, PrefixSet) {
        let mut targets: Vec<Ipv6Addr> = w.hosts().iter().map(|(a, _)| a).take(300).collect();
        let (base, _) = w.hosts().iter().next().unwrap();
        let net = u128::from(base) & !0xffffu128;
        // routed holes: silence or unreachables
        targets.extend((0..100u128).map(|i| Ipv6Addr::from(net | (0xa000 + i))));
        // unrouted space
        targets.extend((0..50u128).map(|i| Ipv6Addr::from((0x3fff_u128 << 112) | i)));
        // duplicates
        let dups: Vec<Ipv6Addr> = targets.iter().step_by(7).copied().collect();
        targets.extend(dups);
        let mut blocklist = PrefixSet::new();
        for &a in targets.iter().step_by(31) {
            blocklist.insert(v6addr::Prefix::new(a, 128));
        }
        (targets, blocklist)
    }

    /// The tentpole acceptance invariant: for every shard width the
    /// parallel pipeline reports exactly what the sequential wire path
    /// reports — hits in the same order, every counter equal.
    #[test]
    fn scan_parallel_is_bit_identical_to_scan() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let (targets, blocklist) = mixed_targets(&world);
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(2),
            rate_pps: None,
            blocklist,
            ..ScannerConfig::default()
        };
        for proto in netmodel::PROTOCOLS {
            let mut seq = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
            let want = seq.scan(targets.iter().copied(), proto);
            for shards in [1, 4, 8] {
                let mut par = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
                let got = par.scan_parallel(targets.iter().copied(), &[proto], shards, None);
                assert_eq!(got, vec![(proto, want.clone())], "{proto:?} x{shards} diverged from sequential");
                assert_eq!(par.packets_sent(), seq.packets_sent(), "{proto:?} x{shards}");
            }
        }
    }

    #[test]
    fn scan_parallel_counts_shard_packets() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets = live_hosts(&world, Protocol::Icmp, 64);
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(1),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        let (_, report) = s.scan_parallel(targets, &[Protocol::Icmp], 4, None).remove(0);
        assert!(report.packets_sent >= 64);
        assert_eq!(
            s.packets_sent(),
            report.packets_sent,
            "shard packets show up in Scanner::packets_sent"
        );
        assert_eq!(
            s.metrics().counter("probe.packets_sent"),
            report.packets_sent,
            "shards share the scanner's metrics"
        );
    }

    #[test]
    fn scan_parallel_splits_the_rate_budget() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets: Vec<Ipv6Addr> = live_hosts(&world, Protocol::Icmp, 200);
        let cfg = ScannerConfig {
            rate_pps: Some(50.0),
            retry: RetryPolicy::fixed(0),
            ..ScannerConfig::default()
        };
        let mut seq = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
        let want = seq.scan(targets.iter().copied(), Protocol::Icmp);
        for shards in [2, 4, 8] {
            let mut par = Scanner::new(cfg.clone(), SimTransport::new(world.clone()));
            let (_, got) = par.scan_parallel(targets.iter().copied(), &[Protocol::Icmp], shards, None).remove(0);
            assert!(got.limited_seconds > 0.0);
            // Each shard gets the budget share of its load, waiting
            // concurrently: the modeled wall time stays within a small
            // factor of the sequential scan's (the budget is split, not
            // multiplied).
            assert!(
                got.limited_seconds <= want.limited_seconds * 1.5 + 1.0,
                "sharding must not inflate the modeled scan time at {shards} shards: {} vs {}",
                got.limited_seconds,
                want.limited_seconds,
            );
            assert_eq!(got.hits, want.hits, "rate limiting never changes results");
        }
    }

    #[test]
    fn scan_parallel_records_par_stats() {
        let world = Arc::new(World::build(WorldConfig::tiny(31)));
        let targets = live_hosts(&world, Protocol::Icmp, 32);
        let cfg = ScannerConfig {
            retry: RetryPolicy::fixed(0),
            rate_pps: None,
            ..ScannerConfig::default()
        };
        let mut s = Scanner::new(cfg, SimTransport::new(world));
        s.scan_parallel(targets, &[Protocol::Icmp, Protocol::Tcp80], 4, None);
        let recorded = sos_obs::par::snapshot();
        let stats = recorded
            .iter()
            .rfind(|s| s.label == "scan_parallel" && s.threads == 8)
            .expect("scan_parallel invocation recorded");
        assert_eq!(stats.workers.len(), 8);
        let items: u64 = stats.workers.iter().map(|w| w.items).sum();
        assert_eq!(items, 8, "one item per (protocol, shard) task");
        assert_eq!(stats.cells.len(), 8);
    }
}
