//! Request-level tracing for the serving fleet simulator.
//!
//! The fleet event loop (in `meshslice-serving`) drives a [`TraceSink`]
//! with one [`ServingEvent`] per lifecycle transition: arrival,
//! admission to the queue, each prefill chunk and decode iteration,
//! preemption/resume, failover outage, and completion with the SLO
//! verdict. Recording into a [`ServingTrace`] is opt-in and — by
//! construction — never feeds back
//! into the simulation arithmetic, so a traced run produces a
//! bit-for-bit identical `FleetReport` (property-tested in the serving
//! crate).
//!
//! A recorded trace exports three ways:
//!
//! - [`ServingTrace::to_jsonl`] — one JSON object per line (header
//!   first), validated by `schemas/serving_trace.schema.json`;
//! - [`ServingTrace::to_chrome_trace`] — chrome://tracing / Perfetto
//!   JSON with one process lane per replica: tid 0 carries the
//!   replica's step timeline (prefill chunks, decode iterations,
//!   failover outages) and each request gets its own thread with
//!   nested `queued` → `prefill` → `generate` spans;
//! - [`BlameReport`] — every completed request's TTFT decomposed into
//!   queueing / prefill / preemption-stall / failover components that
//!   sum to the measured TTFT exactly.
//!
//! Event times are simulation seconds. Within one replica the stream is
//! ordered by *emission*; `Arrival`/`Queued` events carry the logical
//! arrival time, which can predate the previous step's end (arrivals
//! are drained when the loop next looks at the clock). Per-request
//! times are always non-decreasing — [`ServingTrace::check_invariants`]
//! enforces exactly that plus span nesting.

use std::collections::BTreeMap;

use crate::json::Json;

/// One lifecycle event emitted by the fleet event loop.
///
/// `kv_bytes` / `queue` snapshots on step events are the replica state
/// *after* the step, which is what the windowed time-series bins.
#[derive(Clone, Debug, PartialEq)]
pub enum ServingEvent {
    /// A request reached the replica's admission control.
    Arrival {
        /// Trace id.
        id: usize,
        /// Arrival time, seconds.
        t: f64,
    },
    /// Admission accepted the request into the waiting queue.
    Queued {
        /// Trace id.
        id: usize,
        /// Arrival time, seconds.
        t: f64,
        /// Queue depth after the push.
        queue: usize,
    },
    /// Admission rejected the request (peak KV can never fit).
    Rejected {
        /// Trace id.
        id: usize,
        /// Arrival time, seconds.
        t: f64,
    },
    /// One chunked-prefill step.
    Prefill {
        /// Step start, seconds.
        start: f64,
        /// Step end, seconds.
        end: f64,
        /// Tokens processed in the chunk.
        tokens: usize,
        /// Requests prefilled for the first time (first token at `end`).
        fresh: Vec<usize>,
        /// Preempted/failed-over requests re-prefilled in this chunk.
        resumed: Vec<usize>,
        /// Whether the step priced on the degraded torus.
        degraded: bool,
        /// Per-chip KV bytes resident after the step.
        kv_bytes: u64,
        /// Waiting-queue depth after the step.
        queue: usize,
    },
    /// A request's first token was emitted (prefill chunk end).
    FirstToken {
        /// Trace id.
        id: usize,
        /// First-token time, seconds.
        t: f64,
    },
    /// One decode iteration over the active batch.
    Decode {
        /// Step start, seconds.
        start: f64,
        /// Step end, seconds.
        end: f64,
        /// Active batch size (tokens generated this step).
        batch: usize,
        /// Whether the step priced on the degraded torus.
        degraded: bool,
        /// Per-chip KV bytes resident after the step.
        kv_bytes: u64,
        /// Waiting-queue depth after the step.
        queue: usize,
    },
    /// A request was evicted (KV pressure LIFO or failover flush).
    Preempted {
        /// Trace id.
        id: usize,
        /// Eviction time, seconds.
        t: f64,
    },
    /// The replica was out for failover (detection + weight restore).
    Outage {
        /// Outage start, seconds.
        start: f64,
        /// Outage end, seconds.
        end: f64,
    },
    /// A request emitted its last token.
    Completed {
        /// Trace id.
        id: usize,
        /// Completion time, seconds.
        t: f64,
        /// Time to first token, seconds.
        ttft: f64,
        /// Tokens generated.
        generated: usize,
        /// Times the request was preempted.
        preemptions: usize,
        /// Whether TTFT met the SLO target.
        slo_ok: bool,
    },
    /// Admission shed the request: SLO-aware load shedding found the
    /// backlog too hot to admit a lowest-priority (newest) arrival.
    Shed {
        /// Trace id.
        id: usize,
        /// Arrival time, seconds.
        t: f64,
        /// Waiting-queue depth that triggered the shed.
        queue: usize,
    },
    /// The fleet router re-enqueued the request with backoff because its
    /// target replica sat inside a failover blackout window.
    Retried {
        /// Trace id.
        id: usize,
        /// Time of the retry decision, seconds.
        t: f64,
        /// Retry attempt number (1 = first retry).
        attempt: usize,
    },
    /// The router landed the request on a survivor replica other than
    /// its round-robin home.
    Redistributed {
        /// Trace id.
        id: usize,
        /// Effective (post-backoff) arrival time, seconds.
        t: f64,
        /// The round-robin home replica.
        from: usize,
        /// The survivor replica that serves the request.
        to: usize,
    },
    /// The router gave up: retry budget or per-request deadline
    /// exhausted with every candidate replica blacked out.
    TimedOut {
        /// Trace id.
        id: usize,
        /// Time the deadline/budget expired, seconds.
        t: f64,
    },
}

impl ServingEvent {
    /// Serializes one event as a flat JSON object (the JSONL line shape).
    pub fn to_json(&self, replica: usize) -> Json {
        let rep = ("replica", Json::Num(replica as f64));
        match self {
            ServingEvent::Arrival { id, t } => Json::obj(vec![
                ("kind", Json::Str("arrival".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
            ]),
            ServingEvent::Queued { id, t, queue } => Json::obj(vec![
                ("kind", Json::Str("queued".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
                ("queue", Json::Num(*queue as f64)),
            ]),
            ServingEvent::Rejected { id, t } => Json::obj(vec![
                ("kind", Json::Str("rejected".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
            ]),
            ServingEvent::Prefill {
                start,
                end,
                tokens,
                fresh,
                resumed,
                degraded,
                kv_bytes,
                queue,
            } => Json::obj(vec![
                ("kind", Json::Str("prefill".into())),
                rep,
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
                ("tokens", Json::Num(*tokens as f64)),
                (
                    "fresh",
                    Json::Arr(fresh.iter().map(|&i| Json::Num(i as f64)).collect()),
                ),
                (
                    "resumed",
                    Json::Arr(resumed.iter().map(|&i| Json::Num(i as f64)).collect()),
                ),
                ("degraded", Json::Bool(*degraded)),
                ("kv_bytes", Json::Num(*kv_bytes as f64)),
                ("queue", Json::Num(*queue as f64)),
            ]),
            ServingEvent::FirstToken { id, t } => Json::obj(vec![
                ("kind", Json::Str("first_token".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
            ]),
            ServingEvent::Decode {
                start,
                end,
                batch,
                degraded,
                kv_bytes,
                queue,
            } => Json::obj(vec![
                ("kind", Json::Str("decode".into())),
                rep,
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
                ("batch", Json::Num(*batch as f64)),
                ("degraded", Json::Bool(*degraded)),
                ("kv_bytes", Json::Num(*kv_bytes as f64)),
                ("queue", Json::Num(*queue as f64)),
            ]),
            ServingEvent::Preempted { id, t } => Json::obj(vec![
                ("kind", Json::Str("preempt".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
            ]),
            ServingEvent::Outage { start, end } => Json::obj(vec![
                ("kind", Json::Str("outage".into())),
                rep,
                ("start", Json::Num(*start)),
                ("end", Json::Num(*end)),
            ]),
            ServingEvent::Completed {
                id,
                t,
                ttft,
                generated,
                preemptions,
                slo_ok,
            } => Json::obj(vec![
                ("kind", Json::Str("complete".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
                ("ttft", Json::Num(*ttft)),
                ("generated", Json::Num(*generated as f64)),
                ("preemptions", Json::Num(*preemptions as f64)),
                ("slo_ok", Json::Bool(*slo_ok)),
            ]),
            ServingEvent::Shed { id, t, queue } => Json::obj(vec![
                ("kind", Json::Str("shed".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
                ("queue", Json::Num(*queue as f64)),
            ]),
            ServingEvent::Retried { id, t, attempt } => Json::obj(vec![
                ("kind", Json::Str("retried".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
                ("attempt", Json::Num(*attempt as f64)),
            ]),
            ServingEvent::Redistributed { id, t, from, to } => Json::obj(vec![
                ("kind", Json::Str("redistributed".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
                ("from", Json::Num(*from as f64)),
                ("to", Json::Num(*to as f64)),
            ]),
            ServingEvent::TimedOut { id, t } => Json::obj(vec![
                ("kind", Json::Str("timed_out".into())),
                rep,
                ("id", Json::Num(*id as f64)),
                ("t", Json::Num(*t)),
            ]),
        }
    }
}

/// Receiver for fleet lifecycle events.
///
/// The fleet event loop calls [`TraceSink::event`] once per transition;
/// implementations must not assume globally sorted times (see the
/// module docs). Sinks observe — they can never influence the
/// simulation.
pub trait TraceSink {
    /// Observes one event.
    fn event(&mut self, e: &ServingEvent);
}

/// A sink that records every event, per replica, for export.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    /// Events in emission order.
    pub events: Vec<ServingEvent>,
}

impl TraceSink for RecordingSink {
    fn event(&mut self, e: &ServingEvent) {
        self.events.push(e.clone());
    }
}

/// A full recorded fleet trace: the run header plus every replica's
/// event stream in emission order.
#[derive(Clone, Debug, PartialEq)]
pub struct ServingTrace {
    /// Model name served.
    pub model: String,
    /// Replica mesh, `"RxC"`.
    pub mesh: String,
    /// Replica count (`events.len()`).
    pub replicas: usize,
    /// Mean offered load, requests/second.
    pub qps: f64,
    /// Arrival seed.
    pub seed: u64,
    /// TTFT p99 target, milliseconds.
    pub slo_p99_ttft_ms: f64,
    /// Per-replica event streams, in emission order.
    pub events: Vec<Vec<ServingEvent>>,
}

impl ServingTrace {
    /// Total events across replicas.
    pub fn len(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run-header line of the JSONL export.
    pub(crate) fn header_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("run".into())),
            ("schema_version", Json::Num(1.0)),
            ("model", Json::Str(self.model.clone())),
            ("mesh", Json::Str(self.mesh.clone())),
            ("replicas", Json::Num(self.replicas as f64)),
            ("qps", Json::Num(self.qps)),
            ("seed", Json::Num(self.seed as f64)),
            ("slo_p99_ttft_ms", Json::Num(self.slo_p99_ttft_ms)),
        ])
    }

    /// JSONL export: the header line, then one line per event, replica
    /// by replica in emission order. Every line validates against
    /// `schemas/serving_trace.schema.json`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header_json().to_string_compact());
        out.push('\n');
        for (r, stream) in self.events.iter().enumerate() {
            for e in stream {
                out.push_str(&e.to_json(r).to_string_compact());
                out.push('\n');
            }
        }
        out
    }

    /// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
    /// one process per replica; tid 0 is the step lane (prefill chunks,
    /// decode iterations, outages) and each request gets its own thread
    /// with nested `queued` → `prefill` → `generate` spans plus
    /// re-prefill spans after preemption.
    pub fn to_chrome_trace(&self) -> String {
        let us = |t: f64| t * 1e6;
        let mut evs: Vec<Json> = Vec::new();
        let meta = |pid: usize, tid: usize, what: &str, name: String| {
            Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(tid as f64)),
                ("name", Json::Str(what.into())),
                ("args", Json::obj(vec![("name", Json::Str(name))])),
            ])
        };
        let span = |pid: usize, tid: usize, name: String, cat: &str, s: f64, e: f64| {
            Json::obj(vec![
                ("ph", Json::Str("X".into())),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(tid as f64)),
                ("name", Json::Str(name)),
                ("cat", Json::Str(cat.into())),
                ("ts", Json::Num(us(s))),
                ("dur", Json::Num(us(e - s))),
            ])
        };
        for (r, stream) in self.events.iter().enumerate() {
            evs.push(meta(r, 0, "process_name", format!("replica {r}")));
            evs.push(meta(r, 0, "thread_name", "steps".to_string()));
            let life = RequestLifetimes::collect(stream);
            for e in stream {
                match e {
                    ServingEvent::Prefill {
                        start,
                        end,
                        tokens,
                        resumed,
                        ..
                    } => {
                        let name = if resumed.is_empty() {
                            format!("prefill {tokens} tok")
                        } else {
                            format!("re-prefill {tokens} tok (+{})", resumed.len())
                        };
                        evs.push(span(r, 0, name, "prefill", *start, *end));
                    }
                    ServingEvent::Decode {
                        start, end, batch, ..
                    } => {
                        evs.push(span(
                            r,
                            0,
                            format!("decode b={batch}"),
                            "decode",
                            *start,
                            *end,
                        ));
                    }
                    ServingEvent::Outage { start, end } => {
                        evs.push(span(r, 0, "failover outage".into(), "outage", *start, *end));
                    }
                    _ => {}
                }
            }
            for (&id, l) in &life.by_id {
                let tid = id + 1;
                if l.rejected {
                    evs.push(span(
                        r,
                        tid,
                        format!("rejected req {id}"),
                        "request",
                        l.arrival,
                        l.arrival,
                    ));
                    continue;
                }
                let Some((cs, ce)) = l.first_chunk else {
                    continue;
                };
                let outer_end = l.completed.unwrap_or(ce);
                evs.push(span(
                    r,
                    tid,
                    format!("req {id}"),
                    "request",
                    l.arrival,
                    outer_end,
                ));
                if cs > l.arrival {
                    evs.push(span(r, tid, "queued".into(), "queued", l.arrival, cs));
                }
                evs.push(span(r, tid, "prefill".into(), "prefill", cs, ce));
                if outer_end > ce {
                    evs.push(span(r, tid, "generate".into(), "decode", ce, outer_end));
                }
                for &(rs, re) in &l.resumed_chunks {
                    evs.push(span(r, tid, "re-prefill".into(), "prefill", rs, re));
                }
            }
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(evs)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
        .to_string_pretty()
    }

    /// Checks the trace's structural invariants: per-request event times
    /// non-decreasing, step-lane intervals well-formed and
    /// non-overlapping, and request spans properly nested
    /// (`arrival ≤ prefill start ≤ first token ≤ completion`, with
    /// re-prefills and preemptions inside the generate span).
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (r, stream) in self.events.iter().enumerate() {
            // Step lane: intervals ordered and non-overlapping.
            let mut last_end = f64::NEG_INFINITY;
            for e in stream {
                let iv = match e {
                    ServingEvent::Prefill { start, end, .. }
                    | ServingEvent::Decode { start, end, .. }
                    | ServingEvent::Outage { start, end } => Some((*start, *end)),
                    _ => None,
                };
                if let Some((s, en)) = iv {
                    if !(s.is_finite() && en.is_finite() && en >= s) {
                        return Err(format!("replica {r}: malformed step interval [{s}, {en}]"));
                    }
                    if s < last_end - 1e-12 {
                        return Err(format!(
                            "replica {r}: step at {s} overlaps previous step ending {last_end}"
                        ));
                    }
                    last_end = en;
                }
            }
            // Per-request monotonic times and span nesting.
            let life = RequestLifetimes::collect(stream);
            let mut last_t: BTreeMap<usize, f64> = BTreeMap::new();
            let mut touch = |id: usize, t: f64, what: &str| -> Result<(), String> {
                let prev = last_t.entry(id).or_insert(f64::NEG_INFINITY);
                if t < *prev - 1e-12 {
                    return Err(format!(
                        "replica {r}: request {id} {what} at {t} precedes earlier event at {prev}"
                    ));
                }
                *prev = t;
                Ok(())
            };
            for e in stream {
                match e {
                    ServingEvent::Arrival { id, t } => touch(*id, *t, "arrival")?,
                    ServingEvent::Queued { id, t, .. } => touch(*id, *t, "queued")?,
                    ServingEvent::Rejected { id, t } => touch(*id, *t, "rejected")?,
                    ServingEvent::Prefill {
                        start,
                        end,
                        fresh,
                        resumed,
                        ..
                    } => {
                        for &id in fresh.iter().chain(resumed) {
                            touch(id, *start, "prefill start")?;
                            touch(id, *end, "prefill end")?;
                        }
                    }
                    ServingEvent::FirstToken { id, t } => touch(*id, *t, "first token")?,
                    ServingEvent::Preempted { id, t } => touch(*id, *t, "preempt")?,
                    ServingEvent::Completed { id, t, .. } => touch(*id, *t, "complete")?,
                    ServingEvent::Shed { id, t, .. } => touch(*id, *t, "shed")?,
                    ServingEvent::Retried { id, t, .. } => touch(*id, *t, "retried")?,
                    ServingEvent::Redistributed { id, t, .. } => touch(*id, *t, "redistributed")?,
                    ServingEvent::TimedOut { id, t } => touch(*id, *t, "timed out")?,
                    ServingEvent::Outage { .. } | ServingEvent::Decode { .. } => {}
                }
            }
            for (&id, l) in &life.by_id {
                if l.rejected {
                    continue;
                }
                let Some((cs, ce)) = l.first_chunk else {
                    continue;
                };
                let Some(ft) = l.first_token else {
                    return Err(format!(
                        "replica {r}: request {id} prefilled but no first token"
                    ));
                };
                if !(l.arrival <= cs + 1e-12 && cs <= ce && (ce - ft).abs() < 1e-9) {
                    return Err(format!(
                        "replica {r}: request {id} spans not nested: arrival {} chunk [{cs}, {ce}] first token {ft}",
                        l.arrival
                    ));
                }
                if let Some(fin) = l.completed {
                    if fin < ft - 1e-12 {
                        return Err(format!(
                            "replica {r}: request {id} completes at {fin} before first token {ft}"
                        ));
                    }
                    for &(rs, re) in &l.resumed_chunks {
                        if rs < ft - 1e-12 || re > fin + 1e-12 {
                            return Err(format!(
                                "replica {r}: request {id} re-prefill [{rs}, {re}] outside generate span [{ft}, {fin}]"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Decomposes every completed request's TTFT into blame components.
    pub fn blame(&self) -> BlameReport {
        BlameReport::from_trace(self)
    }
}

/// Per-request milestones recovered from one replica's event stream.
#[derive(Clone, Debug, Default)]
struct Lifetime {
    arrival: f64,
    rejected: bool,
    first_chunk: Option<(f64, f64)>,
    resumed_chunks: Vec<(f64, f64)>,
    first_token: Option<f64>,
    completed: Option<f64>,
}

struct RequestLifetimes {
    by_id: BTreeMap<usize, Lifetime>,
    /// Failover outage intervals on this replica.
    outages: Vec<(f64, f64)>,
    /// Chunks that re-prefilled at least one preempted request.
    reprefill_chunks: Vec<(f64, f64)>,
}

impl RequestLifetimes {
    fn collect(stream: &[ServingEvent]) -> RequestLifetimes {
        let mut by_id: BTreeMap<usize, Lifetime> = BTreeMap::new();
        let mut outages = Vec::new();
        let mut reprefill_chunks = Vec::new();
        for e in stream {
            match e {
                ServingEvent::Arrival { id, t } => {
                    by_id.entry(*id).or_default().arrival = *t;
                }
                ServingEvent::Rejected { id, .. } => {
                    by_id.entry(*id).or_default().rejected = true;
                }
                ServingEvent::Prefill {
                    start,
                    end,
                    fresh,
                    resumed,
                    ..
                } => {
                    for &id in fresh {
                        let l = by_id.entry(id).or_default();
                        if l.first_chunk.is_none() {
                            l.first_chunk = Some((*start, *end));
                        }
                    }
                    for &id in resumed {
                        by_id
                            .entry(id)
                            .or_default()
                            .resumed_chunks
                            .push((*start, *end));
                    }
                    if !resumed.is_empty() {
                        reprefill_chunks.push((*start, *end));
                    }
                }
                ServingEvent::FirstToken { id, t } => {
                    let l = by_id.entry(*id).or_default();
                    if l.first_token.is_none() {
                        l.first_token = Some(*t);
                    }
                }
                ServingEvent::Outage { start, end } => outages.push((*start, *end)),
                ServingEvent::Completed { id, t, .. } => {
                    by_id.entry(*id).or_default().completed = Some(*t);
                }
                // Router/shedding events carry no served-lifecycle
                // milestones: a shed or timed-out request never
                // prefills, so it simply has no `first_chunk` and the
                // chrome/blame exports skip it.
                ServingEvent::Queued { .. }
                | ServingEvent::Decode { .. }
                | ServingEvent::Preempted { .. }
                | ServingEvent::Shed { .. }
                | ServingEvent::Retried { .. }
                | ServingEvent::Redistributed { .. }
                | ServingEvent::TimedOut { .. } => {}
            }
        }
        RequestLifetimes {
            by_id,
            outages,
            reprefill_chunks,
        }
    }
}

/// One completed request's TTFT, decomposed. All components are seconds
/// and sum to `ttft` exactly (`queueing` is the residual).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TtftBlame {
    /// Trace id.
    pub id: usize,
    /// Replica served on.
    pub replica: usize,
    /// Measured time to first token.
    pub ttft: f64,
    /// Waiting for a prefill slot (residual: `ttft` minus the rest).
    pub queueing: f64,
    /// The request's own prefill chunk.
    pub prefill: f64,
    /// Replica time spent re-prefilling preempted/failed-over work
    /// while this request waited.
    pub preemption: f64,
    /// Failover outage overlapping the wait.
    pub failover: f64,
}

impl TtftBlame {
    /// Sum of the four components — equals `ttft` by construction.
    pub fn components_sum(&self) -> f64 {
        self.queueing + self.prefill + self.preemption + self.failover
    }

    fn to_json_ms(self) -> Json {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("replica", Json::Num(self.replica as f64)),
            ("ttft_ms", Json::Num(self.ttft * 1e3)),
            ("queueing_ms", Json::Num(self.queueing * 1e3)),
            ("prefill_ms", Json::Num(self.prefill * 1e3)),
            ("preemption_ms", Json::Num(self.preemption * 1e3)),
            ("failover_ms", Json::Num(self.failover * 1e3)),
        ])
    }
}

/// Percentile-band labels of the blame table, tail last.
pub(crate) const BLAME_BUCKETS: [&str; 4] = ["p0-p50", "p50-p90", "p90-p99", "p99-p100"];

/// Mean blame over one percentile band of the TTFT distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlameBucket {
    /// Band label: `p0-p50`, `p50-p90`, `p90-p99` or `p99-p100`.
    pub label: &'static str,
    /// Requests in the band.
    pub count: usize,
    /// Mean TTFT, seconds.
    pub mean_ttft: f64,
    /// Mean queueing component, seconds.
    pub mean_queueing: f64,
    /// Mean prefill component, seconds.
    pub mean_prefill: f64,
    /// Mean preemption-stall component, seconds.
    pub mean_preemption: f64,
    /// Mean failover component, seconds.
    pub mean_failover: f64,
}

/// TTFT blame for every completed request of a fleet run, sorted by
/// TTFT ascending (ties broken by id).
#[derive(Clone, Debug, PartialEq)]
pub struct BlameReport {
    /// Per-request decompositions, TTFT-ascending.
    pub requests: Vec<TtftBlame>,
}

impl BlameReport {
    /// Computes the decomposition from a recorded trace.
    ///
    /// Component semantics, per completed request with arrival `a` and
    /// first token `f`: `prefill` is its own (first) prefill chunk;
    /// `failover` is outage time overlapping `[a, f]`; `preemption` is
    /// time inside `[a, f]` the replica spent on prefill chunks that
    /// re-admitted preempted work (excluding the request's own chunk) —
    /// the stall caused by evicted requests jumping the queue; and
    /// `queueing` is the residual, so the four sum to TTFT exactly.
    /// The three measured intervals are disjoint slices of `[a, f]`,
    /// so every component is non-negative up to rounding.
    pub(crate) fn from_trace(trace: &ServingTrace) -> BlameReport {
        let mut requests = Vec::new();
        let overlap = |s: f64, e: f64, a: f64, b: f64| (e.min(b) - s.max(a)).max(0.0);
        for (r, stream) in trace.events.iter().enumerate() {
            let life = RequestLifetimes::collect(stream);
            for (&id, l) in &life.by_id {
                let (Some((cs, ce)), Some(ft)) = (l.first_chunk, l.first_token) else {
                    continue;
                };
                let a = l.arrival;
                let ttft = ft - a;
                let prefill = ce - cs;
                // `+ 0.0` normalizes the empty-sum identity (-0.0) so
                // zero components serialize and render as plain 0.0.
                let failover: f64 = life
                    .outages
                    .iter()
                    .map(|&(s, e)| overlap(s, e, a, ft))
                    .sum::<f64>()
                    + 0.0;
                let preemption: f64 = life
                    .reprefill_chunks
                    .iter()
                    .filter(|&&(s, e)| (s, e) != (cs, ce))
                    .map(|&(s, e)| overlap(s, e, a, ft))
                    .sum::<f64>()
                    + 0.0;
                let queueing = ttft - prefill - preemption - failover + 0.0;
                requests.push(TtftBlame {
                    id,
                    replica: r,
                    ttft,
                    queueing,
                    prefill,
                    preemption,
                    failover,
                });
            }
        }
        requests.sort_by(|x, y| x.ttft.total_cmp(&y.ttft).then(x.id.cmp(&y.id)));
        BlameReport { requests }
    }

    /// Mean blame per percentile band of the TTFT distribution
    /// (`p0-p50`, `p50-p90`, `p90-p99`, `p99-p100`). Bands can be empty
    /// for tiny runs.
    pub fn buckets(&self) -> Vec<BlameBucket> {
        let n = self.requests.len();
        let cut = |q: f64| ((q * n as f64).ceil() as usize).min(n);
        let bounds = [0, cut(0.50), cut(0.90), cut(0.99), n];
        BLAME_BUCKETS
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                let band = &self.requests[bounds[i].min(bounds[i + 1])..bounds[i + 1]];
                let c = band.len();
                let mean = |f: &dyn Fn(&TtftBlame) -> f64| {
                    if c == 0 {
                        0.0
                    } else {
                        band.iter().map(f).sum::<f64>() / c as f64
                    }
                };
                BlameBucket {
                    label,
                    count: c,
                    mean_ttft: mean(&|b| b.ttft),
                    mean_queueing: mean(&|b| b.queueing),
                    mean_prefill: mean(&|b| b.prefill),
                    mean_preemption: mean(&|b| b.preemption),
                    mean_failover: mean(&|b| b.failover),
                }
            })
            .collect()
    }

    /// The nearest-rank `q`-percentile request's decomposition, or
    /// `None` for an empty report.
    pub(crate) fn percentile_request(&self, q: f64) -> Option<&TtftBlame> {
        if self.requests.is_empty() {
            return None;
        }
        let n = self.requests.len();
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let rank = (q * n as f64).ceil() as usize;
        Some(&self.requests[rank.saturating_sub(1).min(n - 1)])
    }

    /// JSON export (milliseconds): bucket means, the p99 request, and
    /// every per-request decomposition.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets()
            .into_iter()
            .map(|b| {
                Json::obj(vec![
                    ("bucket", Json::Str(b.label.into())),
                    ("count", Json::Num(b.count as f64)),
                    ("ttft_ms", Json::Num(b.mean_ttft * 1e3)),
                    ("queueing_ms", Json::Num(b.mean_queueing * 1e3)),
                    ("prefill_ms", Json::Num(b.mean_prefill * 1e3)),
                    ("preemption_ms", Json::Num(b.mean_preemption * 1e3)),
                    ("failover_ms", Json::Num(b.mean_failover * 1e3)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema_version", Json::Num(1.0)),
            ("count", Json::Num(self.requests.len() as f64)),
            ("buckets", Json::Arr(buckets)),
        ];
        if let Some(p99) = self.percentile_request(0.99) {
            fields.push(("p99", p99.to_json_ms()));
        }
        fields.push((
            "requests",
            Json::Arr(self.requests.iter().map(|b| b.to_json_ms()).collect()),
        ));
        Json::obj(fields)
    }

    /// The `serve --explain` text table (milliseconds).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "TTFT blame ({} completed requests; mean ms per percentile band)\n",
            self.requests.len()
        );
        out.push_str(&format!(
            "{:<9} {:>6} {:>11} {:>11} {:>9} {:>9} {:>9}\n",
            "bucket", "reqs", "ttft", "queueing", "prefill", "preempt", "failover"
        ));
        for b in self.buckets() {
            out.push_str(&format!(
                "{:<9} {:>6} {:>11.1} {:>11.1} {:>9.1} {:>9.1} {:>9.1}\n",
                b.label,
                b.count,
                b.mean_ttft * 1e3,
                b.mean_queueing * 1e3,
                b.mean_prefill * 1e3,
                b.mean_preemption * 1e3,
                b.mean_failover * 1e3,
            ));
        }
        if let Some(p) = self.percentile_request(0.99) {
            out.push_str(&format!(
                "p99 request #{} (replica {}): ttft {:.1} ms = queueing {:.1} + prefill {:.1} + preempt {:.1} + failover {:.1}\n",
                p.id,
                p.replica,
                p.ttft * 1e3,
                p.queueing * 1e3,
                p.prefill * 1e3,
                p.preemption * 1e3,
                p.failover * 1e3,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One replica, two requests: req 0 prefills immediately, req 1
    /// waits behind an outage and a re-prefill chunk.
    fn synthetic_trace() -> ServingTrace {
        let events = vec![vec![
            ServingEvent::Arrival { id: 0, t: 0.0 },
            ServingEvent::Queued {
                id: 0,
                t: 0.0,
                queue: 1,
            },
            ServingEvent::Prefill {
                start: 0.0,
                end: 1.0,
                tokens: 128,
                fresh: vec![0],
                resumed: vec![],
                degraded: false,
                kv_bytes: 10,
                queue: 0,
            },
            ServingEvent::FirstToken { id: 0, t: 1.0 },
            ServingEvent::Arrival { id: 2, t: 1.0 },
            ServingEvent::Queued {
                id: 2,
                t: 1.0,
                queue: 1,
            },
            ServingEvent::Decode {
                start: 1.0,
                end: 2.0,
                batch: 1,
                degraded: false,
                kv_bytes: 11,
                queue: 1,
            },
            ServingEvent::Outage {
                start: 2.0,
                end: 3.0,
            },
            ServingEvent::Preempted { id: 0, t: 2.0 },
            ServingEvent::Prefill {
                start: 3.0,
                end: 4.0,
                tokens: 130,
                fresh: vec![],
                resumed: vec![0],
                degraded: true,
                kv_bytes: 11,
                queue: 1,
            },
            ServingEvent::Prefill {
                start: 4.0,
                end: 5.5,
                tokens: 96,
                fresh: vec![2],
                resumed: vec![],
                degraded: true,
                kv_bytes: 20,
                queue: 0,
            },
            ServingEvent::FirstToken { id: 2, t: 5.5 },
            ServingEvent::Decode {
                start: 5.5,
                end: 7.0,
                batch: 2,
                degraded: true,
                kv_bytes: 22,
                queue: 0,
            },
            ServingEvent::Completed {
                id: 0,
                t: 7.0,
                ttft: 1.0,
                generated: 3,
                preemptions: 1,
                slo_ok: true,
            },
            ServingEvent::Completed {
                id: 2,
                t: 7.0,
                ttft: 4.5,
                generated: 2,
                preemptions: 0,
                slo_ok: false,
            },
        ]];
        ServingTrace {
            model: "tiny".into(),
            mesh: "2x2".into(),
            replicas: 1,
            qps: 5.0,
            seed: 7,
            slo_p99_ttft_ms: 500.0,
            events,
        }
    }

    #[test]
    fn invariants_hold_on_the_synthetic_trace() {
        synthetic_trace().check_invariants().expect("well-formed");
    }

    #[test]
    fn invariants_catch_time_regressions() {
        let mut t = synthetic_trace();
        t.events[0].push(ServingEvent::FirstToken { id: 0, t: 0.5 });
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_overlapping_steps() {
        let mut t = synthetic_trace();
        t.events[0].push(ServingEvent::Decode {
            start: 6.0,
            end: 6.5,
            batch: 1,
            degraded: true,
            kv_bytes: 1,
            queue: 0,
        });
        assert!(t.check_invariants().is_err());
    }

    #[test]
    fn blame_components_sum_to_ttft_and_attribute_the_stall() {
        let report = synthetic_trace().blame();
        assert_eq!(report.requests.len(), 2);
        for b in &report.requests {
            assert!((b.components_sum() - b.ttft).abs() < 1e-12);
            for c in [b.queueing, b.prefill, b.preemption, b.failover] {
                assert!(c >= -1e-12, "negative component {c} for request {}", b.id);
            }
        }
        // Request 2: arrival 1.0, first token 5.5 → ttft 4.5 decomposed
        // as prefill 1.5 (its own chunk), failover 1.0 (outage 2..3),
        // preemption 1.0 (re-prefill 3..4), queueing 1.0 (decode 1..2).
        let r2 = report.requests.iter().find(|b| b.id == 2).expect("present");
        assert!((r2.ttft - 4.5).abs() < 1e-12);
        assert!((r2.prefill - 1.5).abs() < 1e-12);
        assert!((r2.failover - 1.0).abs() < 1e-12);
        assert!((r2.preemption - 1.0).abs() < 1e-12);
        assert!((r2.queueing - 1.0).abs() < 1e-12);
    }

    #[test]
    fn buckets_partition_the_requests() {
        let report = synthetic_trace().blame();
        let buckets = report.buckets();
        assert_eq!(buckets.len(), BLAME_BUCKETS.len());
        assert_eq!(buckets.iter().map(|b| b.count).sum::<usize>(), 2);
        let p99 = report.percentile_request(0.99).expect("non-empty");
        assert_eq!(p99.id, 2, "slowest request is the tail");
    }

    #[test]
    fn jsonl_round_trips_line_by_line() {
        let t = synthetic_trace();
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1 + t.len());
        for line in lines {
            let v = Json::parse(line).expect("every line parses");
            assert!(v.get("kind").is_some());
        }
        assert!(jsonl.starts_with("{\"kind\":\"run\""));
    }

    #[test]
    fn chrome_trace_has_a_lane_per_replica_and_nested_request_spans() {
        let t = synthetic_trace();
        let doc = Json::parse(&t.to_chrome_trace()).expect("valid json");
        let evs = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("replica 0")
        }));
        // Request 2's queued span nests inside its outer request span.
        let span_of = |name: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .map(|e| {
                    let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                    let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                    (ts, ts + dur)
                })
                .expect("span present")
        };
        let outer = span_of("req 2");
        let queued = span_of("queued");
        assert!(outer.0 <= queued.0 && queued.1 <= outer.1);
    }

    #[test]
    fn empty_trace_blame_is_empty_not_a_panic() {
        let t = ServingTrace {
            model: "tiny".into(),
            mesh: "2x2".into(),
            replicas: 1,
            qps: 1.0,
            seed: 0,
            slo_p99_ttft_ms: 500.0,
            events: vec![vec![]],
        };
        assert!(t.is_empty());
        let blame = t.blame();
        assert!(blame.requests.is_empty());
        assert!(blame.percentile_request(0.99).is_none());
        assert!(blame.render_text().contains("0 completed"));
    }
}
