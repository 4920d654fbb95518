//! Multi-protocol scan campaigns, with checkpoint/resume.
//!
//! §5.3's collection step — "we proceed to scan ... on four ports and
//! protocols" — is the canonical adopter workflow: one target list, every
//! scan target, one merged per-address result. [`Campaign`] packages it:
//! deduplicated targets are scanned on every protocol concurrently through
//! one scanner's sharded pipeline, and the outcome is a per-address
//! [`PortSet`] plus per-protocol reports.
//!
//! [`Campaign::run_with`], the one entry point, adds hostile-world
//! endurance: the prepared target list is scanned in *rounds* of
//! `checkpoint_every` targets (each round covering every protocol; `0`
//! means one round), and after each round the complete
//! cross-target machine state — partial reports, the fault layer's
//! per-prefix density clocks, circuit-breaker states, the rate limiter's
//! virtual clock, and the metric counters — is serialized to a JSON
//! [`CampaignCheckpoint`]. A killed campaign resumed from its last
//! checkpoint produces a [`CampaignRun`] **bit-identical** to the
//! uninterrupted run: every piece of cross-target state is keyed by
//! `(prefix-or-address, protocol)` and restored exactly, and floats travel
//! as raw bits. Cooperative cancellation (an [`AtomicBool`]) and
//! `stop_after_rounds` stop at the same round boundaries the checkpoints
//! are written at.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netmodel::{FaultEpochs, PortSet, Protocol, PROTOCOLS};
use sos_obs::json::Json;
use sos_obs::manifest::fnv1a64;
use sos_obs::{Event, JournalWriter, SnapshotExporter};

use crate::engine::{ScanReport, Scanner};
use crate::provenance::{AttributionTable, Provenance, ProvenanceLog};
use crate::ratelimit::{BucketSnapshot, TokenBucket};
use crate::retry::{BreakerConfig, BreakerMap, BreakerState};
use crate::transport::Transport;

/// The merged outcome of scanning one target list on several protocols.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// Observed responsiveness per address (addresses with at least one
    /// positive response; silent addresses are absent).
    responsive: HashMap<u128, PortSet>,
    /// The per-protocol scan reports, in scan order.
    pub reports: Vec<(Protocol, ScanReport)>,
}

impl CampaignResult {
    /// Merge per-protocol reports (in scan order) into the per-address
    /// view: an address's [`PortSet`] holds every protocol it hit on.
    pub fn from_reports(reports: Vec<(Protocol, ScanReport)>) -> Self {
        let mut responsive: HashMap<u128, PortSet> = HashMap::new();
        for (proto, report) in &reports {
            for &hit in &report.hits {
                responsive.entry(u128::from(hit)).or_insert(PortSet::EMPTY).insert(*proto);
            }
        }
        CampaignResult { responsive, reports }
    }

    /// Responsiveness of one address (empty when it never answered).
    pub fn ports(&self, addr: Ipv6Addr) -> PortSet {
        self.responsive
            .get(&u128::from(addr))
            .copied()
            .unwrap_or(PortSet::EMPTY)
    }

    /// Number of addresses responsive on ≥1 scanned protocol.
    pub fn responsive_count(&self) -> usize {
        self.responsive.len()
    }

    /// Number of addresses responsive on `proto`.
    pub fn responsive_on(&self, proto: Protocol) -> usize {
        self.responsive.values().filter(|p| p.contains(proto)).count()
    }

    /// Iterate `(address, ports)` for every responsive address, sorted.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, PortSet)> + '_ {
        let mut keys: Vec<u128> = self.responsive.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(move |k| (Ipv6Addr::from(k), self.responsive[&k])) // k drawn from responsive.keys()
    }

    /// Total probe packets across all protocols.
    pub fn packets_sent(&self) -> u64 {
        self.reports.iter().map(|(_, r)| r.packets_sent).sum()
    }
}

/// Knobs for [`Campaign::run_with`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Shards per round (`0`/`1` = sequential; normalized to ≥ 1).
    pub shards: usize,
    /// Prepared targets per round. `0` means one single round (no
    /// intermediate checkpoint boundaries).
    pub checkpoint_every: usize,
    /// Where to write the checkpoint after every round. `None` disables
    /// persistence (rounds and cancellation still apply).
    pub checkpoint_path: Option<PathBuf>,
    /// Cooperative cancellation: checked at every round boundary; when
    /// set, the campaign checkpoints and returns `completed = false`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Stop (checkpoint + return) after this many rounds *in this
    /// invocation* — the test hook that simulates a kill at an exact
    /// checkpoint boundary.
    pub stop_after_rounds: Option<usize>,
    /// Where to write the live JSONL event journal
    /// ([`sos_obs::journal`]): round boundaries, checkpoint writes,
    /// breaker and fault-epoch transitions, and counter snapshots, each
    /// stamped with the campaign's deterministic virtual clock (the
    /// shard-invariant `backoff_waited_us + throttled_us` total). A fresh
    /// run truncates; a resume appends and continues the sequence.
    /// `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Where to write Prometheus-style text snapshots of the global
    /// metrics registry at round boundaries. `None` disables.
    pub snapshot_path: Option<PathBuf>,
    /// Emit a replay-grade counter [`Event::Snapshot`] (and refresh
    /// `snapshot_path`) every N rounds; `0`/`1` snapshot every round.
    /// Checkpoint writes always snapshot regardless, so the journal's
    /// last snapshot matches the on-disk checkpoint after a kill.
    pub snapshot_every: usize,
    /// Discovery provenance for the target list (same emission order),
    /// recorded by the generator that produced it — or
    /// [`ProvenanceLog::for_targets`] for raw lists. When set, every
    /// report accumulates a per-region [`AttributionTable`] (rides
    /// through checkpoints) and the campaign journals per-source
    /// [`Event::Discovery`] totals at the end. `None` scans untagged.
    pub provenance: Option<Arc<ProvenanceLog>>,
}

/// What [`Campaign::run_with`] produced.
#[derive(Debug)]
pub struct CampaignRun {
    /// Merged results over everything scanned so far.
    pub result: CampaignResult,
    /// Whether every prepared target was scanned on every protocol.
    pub completed: bool,
    /// Rounds executed across the campaign's lifetime (including rounds
    /// restored from a checkpoint).
    pub rounds: usize,
    /// Prepared targets restored as already-done by a checkpoint resume.
    pub resumed_targets: usize,
}

/// Everything needed to resume a killed campaign bit-identically:
/// progress, partial reports, and every piece of cross-target machine
/// state. Serialized as JSON (`u128` addresses as 32-digit hex strings,
/// floats as `f64::to_bits`), guarded by a fingerprint over the target
/// list, protocol set, and scanner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// FNV-1a over the canonical campaign identity (targets, protocols,
    /// scanner config). Resume refuses a checkpoint from a different
    /// campaign.
    pub fingerprint: u64,
    /// Prepared targets fully scanned (on every protocol).
    pub done: usize,
    /// Rounds executed so far.
    pub rounds: usize,
    /// Per-protocol cumulative reports.
    pub reports: Vec<(Protocol, ScanReport)>,
    /// The rate limiter's full state, when one is configured.
    pub limiter: Option<BucketSnapshot>,
    /// The fault layer's per-(domain, protocol) density clocks.
    pub fault_state: Vec<(u128, u8, u32)>,
    /// Circuit-breaker tuning, per-domain states, and counters.
    pub breaker: Option<BreakerCheckpoint>,
    /// Engine metric counters at the checkpoint boundary.
    pub counters: BTreeMap<String, u64>,
}

/// A [`BreakerMap`]'s checkpointed form.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerCheckpoint {
    /// The tuning the map was built with.
    pub cfg: BreakerConfig,
    /// `(domain, proto index, state tag, state count)` per breaker.
    pub entries: Vec<(u128, u8, u8, u32)>,
    /// Cumulative open transitions.
    pub opened: u64,
    /// Cumulative skipped targets.
    pub skipped: u64,
}

/// Format version written into checkpoints.
const CHECKPOINT_VERSION: u64 = 1;

fn hex128(v: u128) -> Json {
    Json::Str(format!("{v:032x}"))
}

fn parse_hex128(j: &Json) -> Result<u128, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u128::from_str_radix(s, 16).map_err(|e| format!("bad hex address {s:?}: {e}"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("checkpoint missing integer field {key:?}"))
}

fn report_to_json(r: &ScanReport) -> Json {
    // Exhaustive destructure: a new ScanReport field fails to compile here
    // until its checkpoint representation is decided.
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
    } = r;
    let mut o = Json::obj();
    o.set("hits", Json::Arr(hits.iter().map(|h| hex128(u128::from(*h))).collect()))
        .set("probed", *probed)
        .set("duplicates", *duplicates)
        .set("blocked", *blocked)
        .set("rsts", *rsts)
        .set("unreachables", *unreachables)
        .set("silent", *silent)
        .set("skipped", *skipped)
        .set("retries", *retries)
        .set("packets_sent", *packets_sent)
        .set("faults_injected", *faults_injected)
        .set("breaker_opened", *breaker_opened)
        .set("backoff_waited_us", *backoff_waited_us)
        .set("throttled_us", *throttled_us)
        .set("limited_seconds_bits", limited_seconds.to_bits());
    if !attribution.is_empty() {
        o.set("attribution", attribution.to_json());
    }
    o
}

fn report_from_json(j: &Json) -> Result<ScanReport, String> {
    let hits = j
        .get("hits")
        .and_then(Json::as_arr)
        .ok_or("checkpoint report missing hits")?
        .iter()
        .map(|h| Ok(Ipv6Addr::from(parse_hex128(h)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ScanReport {
        hits,
        probed: get_u64(j, "probed")? as usize,
        duplicates: get_u64(j, "duplicates")? as usize,
        blocked: get_u64(j, "blocked")? as usize,
        rsts: get_u64(j, "rsts")? as usize,
        unreachables: get_u64(j, "unreachables")? as usize,
        silent: get_u64(j, "silent")? as usize,
        skipped: get_u64(j, "skipped")? as usize,
        retries: get_u64(j, "retries")?,
        packets_sent: get_u64(j, "packets_sent")?,
        faults_injected: get_u64(j, "faults_injected")?,
        breaker_opened: get_u64(j, "breaker_opened")?,
        backoff_waited_us: get_u64(j, "backoff_waited_us")?,
        throttled_us: get_u64(j, "throttled_us")?,
        limited_seconds: f64::from_bits(get_u64(j, "limited_seconds_bits")?),
        // Absent in pre-attribution checkpoints (and untagged runs):
        // decode as empty so CHECKPOINT_VERSION stays 1.
        attribution: match j.get("attribution") {
            None | Some(Json::Null) => AttributionTable::new(),
            Some(a) => AttributionTable::from_json(a)?,
        },
    })
}

fn proto_by_index(idx: u64) -> Result<Protocol, String> {
    PROTOCOLS
        .into_iter()
        .find(|p| p.index() as u64 == idx)
        .ok_or_else(|| format!("unknown protocol index {idx}"))
}

impl CampaignCheckpoint {
    /// Serialize to the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("version", CHECKPOINT_VERSION)
            .set("fingerprint", sos_obs::manifest::digest_hex(self.fingerprint))
            .set("done", self.done)
            .set("rounds", self.rounds);
        doc.set(
            "reports",
            Json::Arr(
                self.reports
                    .iter()
                    .map(|(proto, report)| {
                        let mut o = Json::obj();
                        o.set("proto", proto.index() as u64)
                            .set("report", report_to_json(report));
                        o
                    })
                    .collect(),
            ),
        );
        doc.set(
            "limiter",
            match &self.limiter {
                None => Json::Null,
                Some(s) => {
                    let mut o = Json::obj();
                    o.set("rate", s.rate)
                        .set("burst", s.burst)
                        .set("tokens", s.tokens)
                        .set("now", s.now)
                        .set("refilled_at", s.refilled_at)
                        .set("waited", s.waited)
                        .set("stalls", s.stalls);
                    o
                }
            },
        );
        doc.set(
            "fault_state",
            Json::Arr(
                self.fault_state
                    .iter()
                    .map(|&(domain, proto, n)| {
                        Json::Arr(vec![hex128(domain), Json::U64(proto.into()), Json::U64(n.into())])
                    })
                    .collect(),
            ),
        );
        doc.set(
            "breaker",
            match &self.breaker {
                None => Json::Null,
                Some(b) => {
                    let mut o = Json::obj();
                    o.set("prefix_len", u64::from(b.cfg.prefix_len))
                        .set("threshold", b.cfg.threshold)
                        .set("cooldown", b.cfg.cooldown)
                        .set("opened", b.opened)
                        .set("skipped", b.skipped)
                        .set(
                            "entries",
                            Json::Arr(
                                b.entries
                                    .iter()
                                    .map(|&(domain, proto, tag, count)| {
                                        Json::Arr(vec![
                                            hex128(domain),
                                            Json::U64(proto.into()),
                                            Json::U64(tag.into()),
                                            Json::U64(count.into()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        );
                    o
                }
            },
        );
        doc.set("counters", &self.counters);
        doc
    }

    /// Parse the on-disk JSON document.
    pub fn from_json(doc: &Json) -> Result<CampaignCheckpoint, String> {
        let version = get_u64(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let fingerprint = doc
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("checkpoint missing fingerprint")?;
        let reports = doc
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or("checkpoint missing reports")?
            .iter()
            .map(|entry| {
                let proto = proto_by_index(get_u64(entry, "proto")?)?;
                let report =
                    report_from_json(entry.get("report").ok_or("report entry missing body")?)?;
                Ok((proto, report))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let limiter = match doc.get("limiter") {
            None | Some(Json::Null) => None,
            Some(l) => Some(BucketSnapshot {
                rate: get_u64(l, "rate")?,
                burst: get_u64(l, "burst")?,
                tokens: get_u64(l, "tokens")?,
                now: get_u64(l, "now")?,
                refilled_at: get_u64(l, "refilled_at")?,
                waited: get_u64(l, "waited")?,
                stalls: get_u64(l, "stalls")?,
            }),
        };
        let triple = |row: &Json| -> Result<(u128, u8, u32), String> {
            let items = row.as_arr().filter(|a| a.len() == 3).ok_or("bad fault_state row")?;
            Ok((
                parse_hex128(&items[0])?, // len checked: exactly 3 items
                items[1].as_u64().ok_or("bad proto")? as u8,
                items[2].as_u64().ok_or("bad count")? as u32,
            ))
        };
        let fault_state = doc
            .get("fault_state")
            .and_then(Json::as_arr)
            .ok_or("checkpoint missing fault_state")?
            .iter()
            .map(triple)
            .collect::<Result<Vec<_>, String>>()?;
        let breaker = match doc.get("breaker") {
            None | Some(Json::Null) => None,
            Some(b) => {
                let entries = b
                    .get("entries")
                    .and_then(Json::as_arr)
                    .ok_or("breaker checkpoint missing entries")?
                    .iter()
                    .map(|row| {
                        let items =
                            row.as_arr().filter(|a| a.len() == 4).ok_or("bad breaker row")?;
                        Ok((
                            parse_hex128(&items[0])?, // len checked: exactly 4 items
                            items[1].as_u64().ok_or("bad proto")? as u8,
                            items[2].as_u64().ok_or("bad tag")? as u8,
                            items[3].as_u64().ok_or("bad count")? as u32,
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Some(BreakerCheckpoint {
                    cfg: BreakerConfig {
                        prefix_len: get_u64(b, "prefix_len")? as u8,
                        threshold: get_u64(b, "threshold")? as u32,
                        cooldown: get_u64(b, "cooldown")? as u32,
                    },
                    entries,
                    opened: get_u64(b, "opened")?,
                    skipped: get_u64(b, "skipped")?,
                })
            }
        };
        let counters = doc
            .get("counters")
            .and_then(Json::entries)
            .ok_or("checkpoint missing counters")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or("bad counter value")?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        Ok(CampaignCheckpoint {
            fingerprint,
            done: get_u64(doc, "done")? as usize,
            rounds: get_u64(doc, "rounds")? as usize,
            reports,
            limiter,
            fault_state,
            breaker,
            counters,
        })
    }

    /// Write the checkpoint to `path` (write-then-rename, so a kill mid
    /// write never corrupts the previous checkpoint).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json().to_string_pretty())?;
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read checkpoint {}: {e}", path.display()))?;
        Self::from_json(&Json::parse(&text)?)
    }
}

/// The campaign's deterministic virtual clock, in microseconds: the sum
/// of every protocol's integer backoff and throttle accounting. Both
/// inputs are shard-summed integers, so the readout is bit-identical
/// across shard counts (unlike `limited_seconds`, which max-merges across
/// concurrent shards and is deliberately excluded).
fn vclock_us(reports: &[(Protocol, ScanReport)]) -> u64 {
    reports
        .iter()
        .map(|(_, r)| r.backoff_waited_us + r.throttled_us)
        .sum()
}

/// The campaign-wide attribution table: every protocol report's table,
/// key-wise merged (order-invariant, like every other merge of it).
pub fn merged_attribution(reports: &[(Protocol, ScanReport)]) -> AttributionTable {
    let mut merged = AttributionTable::new();
    for (_, r) in reports {
        merged.merge(&r.attribution);
    }
    merged
}

/// One [`Event::Discovery`] per provenance source, in source order, from
/// the merged attribution table.
fn discovery_events(table: &AttributionTable) -> Vec<Event> {
    let mut by_source: BTreeMap<u8, (u64, u64, u64, u64, u64)> = BTreeMap::new();
    for (source, _region, tally) in table.rows() {
        let entry = by_source.entry(source).or_default();
        entry.0 += 1;
        entry.1 += tally.probes;
        entry.2 += tally.hits;
        entry.3 += tally.aliases;
        entry.4 += tally.wasted();
    }
    by_source
        .into_iter()
        .map(|(source, (regions, probes, hits, aliases, wasted))| Event::Discovery {
            source: source.into(),
            regions,
            probes,
            hits,
            aliases,
            wasted,
        })
        .collect()
}

/// Cumulative `(hits, packets)` across every protocol report — diffed
/// around a round to label [`Event::RoundEnd`] with per-round deltas.
fn hit_packet_totals(reports: &[(Protocol, ScanReport)]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(h, p), (_, r)| {
        (h + r.hits.len() as u64, p + r.packets_sent)
    })
}

/// Current breaker state names by `(domain, proto)` (empty when breaking
/// is not configured).
fn breaker_names<T: Transport>(scanner: &Scanner<T>) -> BTreeMap<(u128, u8), &'static str> {
    scanner.breaker().map_or_else(BTreeMap::new, |b| {
        b.entries().into_iter().map(|(key, state)| (key, state.name())).collect()
    })
}

/// Current fault-epoch readout by `(domain, proto)` (empty when no fault
/// layer is active).
fn fault_epoch_map<T: Transport>(scanner: &Scanner<T>) -> BTreeMap<(u128, u8), FaultEpochs> {
    let transport = scanner.transport();
    transport
        .fault_state()
        .into_iter()
        .filter_map(|(domain, proto, density)| {
            transport.fault_epochs_at(density).map(|e| ((domain, proto), e))
        })
        .collect()
}

/// Round-boundary telemetry state: the journal writer plus the previous
/// round's breaker/fault readouts, diffed to emit transition events.
///
/// Transitions are detected by the **campaign** at round boundaries — the
/// shard workers never emit events, so the journal's event stream is
/// deterministic (sorted by `(domain, proto)`) no matter how many shards
/// raced through the round.
struct Telemetry {
    journal: JournalWriter,
    exporter: Option<SnapshotExporter>,
    breaker_prev: BTreeMap<(u128, u8), &'static str>,
    fault_prev: BTreeMap<(u128, u8), FaultEpochs>,
}

impl Telemetry {
    /// Breaker + fault-epoch transition events since the previous round
    /// boundary, in sorted `(domain, proto)` order; updates the baselines.
    fn transitions<T: Transport>(&mut self, scanner: &Scanner<T>) -> Vec<Event> {
        let mut events = Vec::new();
        let breakers = breaker_names(scanner);
        for (&(domain, proto), &name) in &breakers {
            // Unseen breakers start life closed; their first appearance
            // in the closed state is not a transition.
            let before = self.breaker_prev.get(&(domain, proto)).copied().unwrap_or("closed");
            if before != name {
                events.push(Event::Breaker {
                    domain,
                    proto,
                    from: before.to_string(),
                    to: name.to_string(),
                });
            }
        }
        self.breaker_prev = breakers;
        let epochs = fault_epoch_map(scanner);
        for (&(domain, proto), readout) in &epochs {
            let before = self
                .fault_prev
                .get(&(domain, proto))
                .copied()
                .unwrap_or(FaultEpochs { burst: 0, blackhole: 0, throttle: 0 });
            for ((kind, now), (_, was)) in readout.families().into_iter().zip(before.families()) {
                if now != was {
                    events.push(Event::FaultEpoch {
                        domain,
                        proto,
                        kind: kind.to_string(),
                        epoch: u64::from(now),
                    });
                }
            }
        }
        self.fault_prev = epochs;
        events
    }

    fn write(&mut self, vclock: u64, event: Event) -> Result<(), String> {
        self.journal
            .write(vclock, event)
            .map_err(|e| format!("write journal {}: {e}", self.journal.path().display()))
    }

    /// Refresh the Prometheus snapshot file at a round boundary.
    fn export_boundary(&mut self) -> Result<(), String> {
        if let Some(ex) = self.exporter.as_mut() {
            ex.round_boundary(sos_obs::registry())
                .map_err(|e| format!("write snapshot {}: {e}", ex.path().display()))?;
        }
        Ok(())
    }

    /// Final snapshot flush (unconditional, ignoring the period).
    fn export_final(&mut self) -> Result<(), String> {
        if let Some(ex) = self.exporter.as_ref() {
            ex.export(sos_obs::registry())
                .map_err(|e| format!("write snapshot {}: {e}", ex.path().display()))?;
        }
        Ok(())
    }
}

/// A reusable multi-protocol campaign over one scanner.
pub struct Campaign<'a, T: Transport> {
    scanner: &'a mut Scanner<T>,
    protocols: Vec<Protocol>,
}

impl<'a, T: Transport + Clone + Send> Campaign<'a, T> {
    /// Campaign over the study's four standard targets.
    pub fn standard(scanner: &'a mut Scanner<T>) -> Self {
        Campaign {
            scanner,
            protocols: PROTOCOLS.to_vec(),
        }
    }

    /// Campaign over a custom protocol list.
    pub fn new(scanner: &'a mut Scanner<T>, protocols: Vec<Protocol>) -> Self {
        Campaign { scanner, protocols }
    }

    /// The campaign's identity fingerprint: target list + protocol set +
    /// scanner configuration, hashed canonically. A checkpoint only
    /// resumes a campaign with the same fingerprint.
    fn fingerprint(&self, targets: &[Ipv6Addr]) -> u64 {
        let mut text = String::new();
        for t in targets {
            let _ = write!(text, "{:032x};", u128::from(*t));
        }
        let _ = write!(text, "|{:?}|{:?}", self.protocols, self.scanner.config());
        fnv1a64(text.as_bytes())
    }

    /// Run (or resume) the campaign in checkpointable rounds.
    ///
    /// The target list is prepared once; rounds of
    /// `opts.checkpoint_every` prepared targets are then scanned on every
    /// protocol (sharded `opts.shards` ways). After each round the full
    /// machine state is written to `opts.checkpoint_path` (when set), and
    /// cancellation / `stop_after_rounds` is honored at the same
    /// boundaries. Passing the saved [`CampaignCheckpoint`] as `resume`
    /// restores every clock and counter and continues from the next
    /// round; the final [`CampaignRun`] is bit-identical to the
    /// uninterrupted run's.
    ///
    /// Errors on a checkpoint whose fingerprint does not match this
    /// campaign (different targets, protocols, or scanner config).
    pub fn run_with(
        &mut self,
        targets: &[Ipv6Addr],
        opts: &RunOptions,
        resume: Option<&CampaignCheckpoint>,
    ) -> Result<CampaignRun, String> {
        let _span = sos_obs::span_detail(
            "campaign",
            format!(
                "protos={} shards={} round={}",
                self.protocols.len(),
                opts.shards.max(1),
                opts.checkpoint_every
            ),
        );
        let fingerprint = self.fingerprint(targets);
        let mut template = ScanReport::default();
        // A resume re-prepares silently: the restored counter snapshot
        // already carries the original run's dedup/blocklist metrics.
        let (prepared, origin) =
            self.scanner
                .prepare_mapped(targets.iter().copied(), resume.is_none(), &mut template);
        // Re-key the emission-order provenance log by prepared index; the
        // per-round slices below carry global prepared indices, so one
        // full-length tag slice serves every round.
        let tags: Option<Vec<Provenance>> =
            opts.provenance.as_ref().map(|log| log.by_prepared(&origin));

        let mut done = 0usize;
        let mut rounds = 0usize;
        let mut resumed_targets = 0usize;
        let mut reports: Vec<(Protocol, ScanReport)> = self
            .protocols
            .iter()
            .map(|&p| (p, template.clone()))
            .collect();

        if let Some(ckpt) = resume {
            if ckpt.fingerprint != fingerprint {
                return Err(format!(
                    "checkpoint fingerprint {} does not match campaign {} \
                     (different targets, protocols, or scanner config)",
                    sos_obs::manifest::digest_hex(ckpt.fingerprint),
                    sos_obs::manifest::digest_hex(fingerprint),
                ));
            }
            if ckpt.done > prepared.len() {
                return Err(format!(
                    "checkpoint claims {} done targets but only {} prepared",
                    ckpt.done,
                    prepared.len()
                ));
            }
            done = ckpt.done;
            rounds = ckpt.rounds;
            resumed_targets = done;
            reports = ckpt.reports.clone();
            self.scanner
                .transport_mut()
                .restore_fault_state(&ckpt.fault_state);
            if let Some(snap) = &ckpt.limiter {
                *self.scanner.limiter_mut() = Some(TokenBucket::restore(snap));
            }
            if let Some(b) = &ckpt.breaker {
                let entries = b
                    .entries
                    .iter()
                    .map(|&(domain, proto, tag, count)| {
                        ((domain, proto), BreakerState::decode(tag, count))
                    })
                    .collect::<Vec<_>>();
                *self.scanner.breaker_mut() =
                    Some(BreakerMap::restore(b.cfg, entries, b.opened, b.skipped));
            }
            self.scanner.metrics().restore_counters(&ckpt.counters);
            self.scanner.metrics().resumed_targets.add(done as u64);
            sos_obs::debug!(
                "campaign resume: {done}/{} targets done after {rounds} rounds",
                prepared.len()
            );
        }

        let round_size = if opts.checkpoint_every == 0 {
            prepared.len().max(1)
        } else {
            opts.checkpoint_every
        };
        let shards = opts.shards.max(1);
        let mut rounds_this_run = 0usize;
        let mut completed = true;

        let snapshot_every = opts.snapshot_every.max(1);
        let mut telemetry = match &opts.journal_path {
            None => None,
            Some(path) => {
                let journal = if resume.is_some() {
                    JournalWriter::append(path)
                } else {
                    JournalWriter::create(path)
                }
                .map_err(|e| format!("open journal {}: {e}", path.display()))?;
                let exporter = opts
                    .snapshot_path
                    .as_ref()
                    .map(|p| SnapshotExporter::new(p, snapshot_every as u64));
                let mut tele = Telemetry {
                    journal,
                    exporter,
                    // Seed the diff baselines from the current (possibly
                    // just-restored) state, so a resume never re-emits
                    // transitions the original run already journaled.
                    breaker_prev: breaker_names(self.scanner),
                    fault_prev: fault_epoch_map(self.scanner),
                };
                let opening = match resume {
                    Some(ckpt) => Event::Resume {
                        fingerprint,
                        done: ckpt.done as u64,
                        rounds: ckpt.rounds as u64,
                    },
                    None => Event::CampaignStart {
                        fingerprint,
                        targets: prepared.len() as u64,
                        protocols: self
                            .protocols
                            .iter()
                            .map(|p| p.label().to_string())
                            .collect(),
                        shards: shards as u64,
                        round_size: round_size as u64,
                    },
                };
                tele.write(vclock_us(&reports), opening)?;
                Some(tele)
            }
        };

        while done < prepared.len() {
            let cancelled = opts
                .cancel
                .as_ref()
                // sos-lint: allow(conc-relaxed) advisory stop flag, read only at round boundaries
                .is_some_and(|c| c.load(Ordering::Relaxed));
            let stopped = opts
                .stop_after_rounds
                .is_some_and(|n| rounds_this_run >= n);
            if cancelled || stopped {
                completed = false;
                break;
            }
            let end = (done + round_size).min(prepared.len());
            if let Some(tele) = telemetry.as_mut() {
                tele.write(
                    vclock_us(&reports),
                    Event::RoundStart {
                        round: (rounds + 1) as u64,
                        from: done as u64,
                        to: end as u64,
                    },
                )?;
            }
            let (hits_before, packets_before) = hit_packet_totals(&reports);
            // done <= end <= prepared.len(): end is clamped above, done
            // only ever advances to a previous end.
            let slice: Vec<(u32, Ipv6Addr)> = prepared[done..end]
                .iter()
                .enumerate()
                .map(|(i, &a)| ((done + i) as u32, a))
                .collect();
            let round =
                self.scanner
                    .scan_prepared(&slice, &self.protocols, shards, tags.as_deref());
            for (i, (proto, partial)) in round.into_iter().enumerate() {
                debug_assert_eq!(reports[i].0, proto); // i < protocols.len() == reports.len()
                reports[i].1.absorb_round(partial); // i < reports.len(): one entry per protocol
            }
            done = end;
            rounds += 1;
            rounds_this_run += 1;
            if let Some(tele) = telemetry.as_mut() {
                let vclock = vclock_us(&reports);
                // Breaker / fault-epoch transitions are diffed here, at
                // the round boundary, in sorted (domain, proto) order —
                // never from shard threads — so the event stream is
                // identical for every shard count.
                for event in tele.transitions(self.scanner) {
                    tele.write(vclock, event)?;
                }
                let (hits_now, packets_now) = hit_packet_totals(&reports);
                tele.write(
                    vclock,
                    Event::RoundEnd {
                        round: rounds as u64,
                        done: done as u64,
                        total: prepared.len() as u64,
                        hits: hits_now - hits_before,
                        packets: packets_now - packets_before,
                    },
                )?;
            }
            let mut checkpointed = false;
            if let Some(path) = &opts.checkpoint_path {
                let ckpt = self.checkpoint(fingerprint, done, rounds, &reports);
                ckpt.save(path).map_err(|e| {
                    format!("write checkpoint {}: {e}", path.display())
                })?;
                checkpointed = true;
                if let Some(tele) = telemetry.as_mut() {
                    tele.write(
                        vclock_us(&reports),
                        Event::CheckpointWrite {
                            fingerprint,
                            done: done as u64,
                            rounds: rounds as u64,
                        },
                    )?;
                }
            }
            if let Some(tele) = telemetry.as_mut() {
                // Checkpoints always pair with a snapshot: after a kill,
                // the journal's last snapshot must mirror the on-disk
                // checkpoint exactly.
                if checkpointed || rounds % snapshot_every == 0 {
                    tele.write(
                        vclock_us(&reports),
                        Event::Snapshot {
                            fingerprint,
                            done: done as u64,
                            counters: self.scanner.metrics().counters(),
                        },
                    )?;
                }
                tele.export_boundary()?;
            }
        }

        if !completed {
            if let Some(path) = &opts.checkpoint_path {
                let ckpt = self.checkpoint(fingerprint, done, rounds, &reports);
                ckpt.save(path)
                    .map_err(|e| format!("write checkpoint {}: {e}", path.display()))?;
                if let Some(tele) = telemetry.as_mut() {
                    tele.write(
                        vclock_us(&reports),
                        Event::CheckpointWrite {
                            fingerprint,
                            done: done as u64,
                            rounds: rounds as u64,
                        },
                    )?;
                }
            }
        }

        // Discovery accounting: raise the attribution counters to the
        // campaign totals (raise-to, so a resumed run lands on the same
        // values as an uninterrupted one) and journal per-source totals.
        let attribution = merged_attribution(&reports);
        if !attribution.is_empty() {
            let (_, hits, _) = attribution.totals();
            self.scanner.metrics().raise_attribution(
                attribution.len() as u64,
                hits,
                attribution.wasted(),
            );
        }

        if let Some(tele) = telemetry.as_mut() {
            let vclock = vclock_us(&reports);
            for event in discovery_events(&attribution) {
                tele.write(vclock, event)?;
            }
            tele.write(
                vclock,
                Event::Snapshot {
                    fingerprint,
                    done: done as u64,
                    counters: self.scanner.metrics().counters(),
                },
            )?;
            tele.write(
                vclock,
                Event::CampaignEnd {
                    completed,
                    rounds: rounds as u64,
                    resumed_targets: resumed_targets as u64,
                },
            )?;
            tele.export_final()?;
        }

        Ok(CampaignRun {
            result: CampaignResult::from_reports(reports),
            completed,
            rounds,
            resumed_targets,
        })
    }

    /// Snapshot the full campaign state at a round boundary.
    // sos-lint: deterministic-root resume must replay to the identical stream
    fn checkpoint(
        &self,
        fingerprint: u64,
        done: usize,
        rounds: usize,
        reports: &[(Protocol, ScanReport)],
    ) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint,
            done,
            rounds,
            reports: reports.to_vec(),
            limiter: self.scanner.limiter().map(TokenBucket::snapshot),
            fault_state: self.scanner.transport().fault_state(),
            breaker: self.scanner.breaker().map(|b| BreakerCheckpoint {
                cfg: *b.config(),
                entries: b
                    .entries()
                    .into_iter()
                    .map(|((domain, proto), state)| {
                        let (tag, count) = state.encode();
                        (domain, proto, tag, count)
                    })
                    .collect(),
                opened: b.opened(),
                skipped: b.skipped(),
            }),
            counters: self.scanner.metrics().counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScannerConfig;
    use crate::retry::RetryPolicy;
    use crate::sim::SimTransport;
    use netmodel::{World, WorldConfig};
    use std::sync::Arc;

    fn scanner(world: Arc<World>) -> Scanner<SimTransport> {
        Scanner::new(
            ScannerConfig {
                retry: RetryPolicy::fixed(3),
                rate_pps: None,
                ..ScannerConfig::default()
            },
            SimTransport::new(world),
        )
    }

    #[test]
    fn campaign_merges_per_protocol_results() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        // pick hosts with known, differing port sets
        let icmp_only = world
            .hosts()
            .iter()
            .find(|(a, r)| {
                !world.is_aliased(*a)
                    && r.responds(Protocol::Icmp)
                    && !r.responds(Protocol::Tcp80)
                    && !r.responds(Protocol::Tcp443)
                    && !r.responds(Protocol::Udp53)
            })
            .map(|(a, _)| a)
            .unwrap();
        let web = world
            .hosts()
            .iter()
            .find(|(a, r)| {
                !world.is_aliased(*a) && r.responds(Protocol::Tcp443) && r.responds(Protocol::Icmp)
            })
            .map(|(a, _)| a)
            .unwrap();
        let dead: Ipv6Addr = "3fff::dead".parse().unwrap();

        let mut s = scanner(world.clone());
        let run = Campaign::standard(&mut s)
            .run_with(&[icmp_only, web, dead], &RunOptions::default(), None)
            .unwrap();
        assert!(run.completed);
        let result = run.result;

        assert_eq!(result.reports.len(), 4);
        assert!(result.ports(icmp_only).contains(Protocol::Icmp));
        assert!(!result.ports(icmp_only).contains(Protocol::Tcp443));
        assert!(result.ports(web).contains(Protocol::Tcp443));
        assert!(result.ports(dead).is_empty());
        assert_eq!(result.responsive_count(), 2);
        assert!(result.packets_sent() >= 12, "3 targets × 4 protocols");
        // merged view matches ground truth for the sampled hosts
        for (addr, ports) in result.iter() {
            for p in ports.iter() {
                assert!(world.truth_responds(addr, p), "{addr} on {p}");
            }
        }
    }

    #[test]
    fn custom_protocol_subset() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let target = world
            .hosts()
            .iter()
            .find(|(a, r)| !world.is_aliased(*a) && r.responds(Protocol::Icmp))
            .map(|(a, _)| a)
            .unwrap();
        let mut s = scanner(world);
        let result = Campaign::new(&mut s, vec![Protocol::Icmp])
            .run_with(&[target], &RunOptions::default(), None)
            .unwrap()
            .result;
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.responsive_on(Protocol::Icmp), 1);
        assert_eq!(result.responsive_on(Protocol::Udp53), 0);
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let ckpt = CampaignCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            done: 42,
            rounds: 3,
            reports: vec![(
                Protocol::Icmp,
                ScanReport {
                    hits: vec!["2001:db8::1".parse().unwrap()],
                    probed: 10,
                    duplicates: 1,
                    blocked: 2,
                    rsts: 0,
                    unreachables: 3,
                    silent: 6,
                    skipped: 4,
                    retries: 7,
                    packets_sent: 17,
                    faults_injected: 5,
                    breaker_opened: 1,
                    backoff_waited_us: 125_000,
                    throttled_us: 1_500_000,
                    limited_seconds: 0.1 + 0.2, // deliberately non-exact
                    attribution: {
                        let mut t = AttributionTable::new();
                        let p = Provenance { source: 2, region: 7, seed_digest: 0xfeed, round: 1 };
                        t.record_probe(p);
                        t.record_hit(p);
                        t
                    },
                },
            )],
            limiter: Some(BucketSnapshot {
                rate: 100.0f64.to_bits(),
                burst: 100.0f64.to_bits(),
                tokens: 3.7f64.to_bits(),
                now: 12.34f64.to_bits(),
                refilled_at: 12.0f64.to_bits(),
                waited: 0.5f64.to_bits(),
                stalls: 9,
            }),
            fault_state: vec![(0x2001_0db8, 0, 17), (u128::MAX, 3, 1)],
            breaker: Some(BreakerCheckpoint {
                cfg: BreakerConfig { prefix_len: 48, threshold: 8, cooldown: 32 },
                entries: vec![(0x2001_0db8, 0, 1, 5), (0x2001_0db9, 2, 2, 0)],
                opened: 2,
                skipped: 11,
            }),
            counters: [("probe.hits".to_string(), 4u64)].into_iter().collect(),
        };
        let doc = ckpt.to_json();
        let text = doc.to_string_pretty();
        let back = CampaignCheckpoint::from_json(&Json::parse(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(back, ckpt, "checkpoint must round-trip bit-exactly");
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let world = Arc::new(World::build(WorldConfig::tiny(0xCA4)));
        let targets: Vec<Ipv6Addr> =
            world.hosts().iter().map(|(a, _)| a).take(4).collect();
        let mut s = scanner(world);
        let mut campaign = Campaign::new(&mut s, vec![Protocol::Icmp]);
        let bogus = CampaignCheckpoint {
            fingerprint: 1,
            done: 0,
            rounds: 0,
            reports: Vec::new(),
            limiter: None,
            fault_state: Vec::new(),
            breaker: None,
            counters: BTreeMap::new(),
        };
        let err = campaign
            .run_with(&targets, &RunOptions::default(), Some(&bogus))
            .expect_err("foreign checkpoint must be refused");
        assert!(err.contains("fingerprint"), "{err}");
    }
}
