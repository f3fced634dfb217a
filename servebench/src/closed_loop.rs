//! The closed loop that serves a workload.
//!
//! A fixed number of clients each keep one request in flight. A client
//! submits its next request — stamped with `arrival_time =
//! scheduler.clock()` — only after the tick that completed its previous
//! one. Submissions therefore follow tick completions, not the wall clock:
//! every run with the same seed executes the same ticks with the same
//! contents, and only their wall durations differ.

use std::collections::BTreeMap;
use std::sync::Arc;

use clusterkv_kvcache::prefix::PrefixStoreStats;
use clusterkv_sched::{Request, RequestId, RequestMetrics, Scheduler};

use crate::config::{EngineSpec, WorkloadSpec};
use crate::probe::{Counts, Probe, Span};
use crate::ticklog::TickRecord;

/// A scheduler plus the bench-side bookkeeping that attributes engine
/// sessions to requests.
pub struct Bench {
    /// The scheduler under test.
    pub sched: Scheduler,
    /// The run's recorder (shared with the engine's timed selectors).
    pub probe: Arc<Probe>,
    /// Sessions created so far: the scheduler creates exactly one session
    /// per admission, so the n-th admitted request owns session ordinal n.
    sessions: u64,
}

impl Bench {
    /// Build the engine and, for workloads with a shared document, prefill
    /// the document once through the scheduler so the prefix store holds it.
    pub fn setup(
        engine: &EngineSpec,
        workload: &WorkloadSpec,
        document: Option<&[usize]>,
        probe: &Arc<Probe>,
    ) -> Result<Self, String> {
        let sched = engine.scheduler(probe)?;
        let mut bench = Bench {
            sched,
            probe: Arc::clone(probe),
            sessions: 0,
        };
        if let Some(doc) = document.filter(|d| !d.is_empty() && workload.document > 0) {
            bench
                .sched
                .submit(Request {
                    prompt: doc.to_vec(),
                    max_new_tokens: 1,
                    priority: 0,
                    arrival_time: bench.sched.clock(),
                    deadline: None,
                })
                .map_err(|e| format!("document submit: {e}"))?;
            while !bench.sched.is_idle() {
                let outcome = bench
                    .sched
                    .tick()
                    .map_err(|e| format!("document prefill: {e}"))?;
                bench.sessions += outcome.admitted.len() as u64;
            }
        }
        Ok(bench)
    }
}

/// How much work a phase does: the closed loop serves requests from the
/// front of the trace and ends when the last one completes.
///
/// With `warmup`, every client's first request is served but not timed, and
/// the timed window opens at the end of the tick that completes the first
/// of them. Those first requests all start in the same tick, a cold-start
/// pile-up that steady serving never sees again; after the first
/// completion the clients are staggered.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Serve one untimed request per client first.
    pub warmup: bool,
    /// Requests submitted inside the timed window.
    pub requests: usize,
}

/// One request the closed loop submitted.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Position in the workload trace.
    pub index: usize,
    /// Scheduler id.
    pub id: RequestId,
    /// Requested generation length.
    pub max_new_tokens: usize,
    /// Wall time of the submit call.
    pub submit_ns: u64,
    /// Submitted inside the timed window (not a warm-up request).
    pub timed: bool,
    /// Tick-log position of the admission tick.
    pub admit_pos: Option<usize>,
    /// Tick-log position of the completion tick.
    pub finish_pos: Option<usize>,
    /// The scheduler's metrics, for completed requests.
    pub metrics: Option<RequestMetrics>,
}

/// Everything one timed phase observed.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Wall time the timed window opened.
    pub start_ns: u64,
    /// Wall time the last tick ended.
    pub end_ns: u64,
    /// Every tick, in order, warm-up included.
    pub ticks: Vec<TickRecord>,
    /// Position in `ticks` of the first tick of the timed window.
    pub window: usize,
    /// Every accepted submission, in submission order, warm-up included.
    pub requests: Vec<RequestRecord>,
    /// Requests the closed loop tried to submit.
    pub attempted: usize,
    /// Refused submissions and scheduler errors, one line each.
    pub errors: Vec<String>,
    /// Probe counters accumulated during the timed window.
    pub counts: Counts,
    /// Spans recorded during the timed window (empty unless tracing).
    pub spans: Vec<Span>,
    /// Session ordinal → position in `requests`.
    pub session_requests: BTreeMap<u64, usize>,
    /// Prefix-store counters at the start and end of the timed window.
    pub prefix: Option<(PrefixStoreStats, PrefixStoreStats)>,
    /// Modeled seconds the timed window advanced the scheduler clock by.
    pub modeled_s: f64,
}

impl Phase {
    /// Wall duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Same ticks with the same contents, and the same requests admitted
    /// and finished in the same ticks: only wall times may differ.
    fn same_work(&self, other: &Phase) -> bool {
        let request = |r: &RequestRecord| (r.index, r.admit_pos, r.finish_pos);
        self.window == other.window
            && self.ticks.len() == other.ticks.len()
            && self
                .ticks
                .iter()
                .zip(&other.ticks)
                .all(|(a, b)| a.same_work(b))
            && self
                .requests
                .iter()
                .map(request)
                .eq(other.requests.iter().map(request))
    }
}

/// The median of `phases`, repeats of the same work on fresh set-ups.
///
/// Every repeat must make the same ticks with the same contents (checked).
/// Each tick, and each gap before it, then takes its median wall duration
/// over the repeats, laid end to end from the first repeat's first tick. A
/// submission keeps its offset after the tick it followed, capped at the new
/// gap. A slow spell of the host that hits one repeat, or a different part
/// of each, leaves the median untouched. Everything but wall times is the
/// first repeat's. Spans are not remapped, so traced phases are not
/// combined.
pub fn median_phase(phases: &[Phase]) -> Result<Phase, String> {
    let (first, rest) = phases.split_first().ok_or("no phase to combine")?;
    if !rest.is_empty() && phases.iter().any(|p| !p.spans.is_empty()) {
        return Err("traced phases are not combined".to_string());
    }
    if let Some(r) = rest.iter().position(|p| !p.same_work(first)) {
        return Err(format!(
            "repeat {} served different ticks than repeat 0",
            r + 1
        ));
    }
    // Per repeat and tick: (gap before the tick, tick duration).
    let shapes: Vec<Vec<(u64, u64)>> = phases
        .iter()
        .map(|p| {
            let mut prev = p.ticks.first().map_or(0, |t| t.start_ns);
            p.ticks
                .iter()
                .map(|t| {
                    let gap = t.start_ns.saturating_sub(prev);
                    prev = t.end_ns;
                    (gap, t.ns())
                })
                .collect()
        })
        .collect();
    let median = |i: usize, part: fn(&(u64, u64)) -> u64| {
        let mut v: Vec<u64> = shapes.iter().map(|s| part(&s[i])).collect();
        v.sort_unstable();
        v[v.len() / 2]
    };

    let mut out = first.clone();
    let mut t = first.ticks.first().map_or(first.start_ns, |t| t.start_ns);
    for (i, tick) in out.ticks.iter_mut().enumerate() {
        tick.start_ns = t + median(i, |s| s.0);
        tick.end_ns = tick.start_ns + median(i, |s| s.1);
        t = tick.end_ns;
    }
    for r in &mut out.requests {
        let ended = first.ticks.partition_point(|t| t.end_ns <= r.submit_ns);
        let Some(k) = ended.checked_sub(1) else {
            continue; // before the first tick, which did not move
        };
        let offset = r.submit_ns - first.ticks[k].end_ns;
        let room = out
            .ticks
            .get(k + 1)
            .map_or(offset, |next| next.start_ns - out.ticks[k].end_ns);
        r.submit_ns = out.ticks[k].end_ns + offset.min(room);
    }
    if let Some(k) = first.window.checked_sub(1) {
        out.start_ns = out.ticks[k].end_ns;
    }
    out.end_ns = out.ticks.last().map_or(out.start_ns, |t| t.end_ns);
    Ok(out)
}

/// Run the closed loop over `trace` with `clients` clients until `limit`.
/// The amount of work is fixed, so every run with the same trace executes
/// the same ticks; only their wall durations differ.
pub fn run_phase(bench: &mut Bench, clients: usize, trace: &[Request], limit: Limit) -> Phase {
    let probe = Arc::clone(&bench.probe);
    let clock = probe.clock();
    // Snapshots taken when the timed window opens.
    let open = |bench: &Bench| {
        drop(probe.take_spans());
        (
            probe.counts(),
            bench.sched.engine().prefix_store_stats(),
            bench.sched.clock().get(),
        )
    };
    let (mut counts_before, mut prefix_before, mut window_clock) = open(bench);

    let mut phase = Phase {
        start_ns: clock.now_ns(),
        end_ns: 0,
        ticks: Vec::new(),
        window: 0,
        requests: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        counts: Counts::default(),
        spans: Vec::new(),
        session_requests: BTreeMap::new(),
        prefix: None,
        modeled_s: 0.0,
    };
    let warmup = if limit.warmup { clients } else { 0 };
    let requests = (warmup + limit.requests).min(trace.len());
    let mut timed = warmup == 0;
    let mut by_id: BTreeMap<RequestId, usize> = BTreeMap::new();
    // What each client has in flight (a position in `phase.requests`).
    let mut in_flight: Vec<Option<usize>> = vec![None; clients];
    let mut next = 0usize;

    loop {
        for slot in in_flight.iter_mut().filter(|s| s.is_none()) {
            while slot.is_none() && next < requests {
                let index = next;
                next += 1;
                let mut request = trace[index].clone();
                request.arrival_time = bench.sched.clock();
                let max_new_tokens = request.max_new_tokens;
                phase.attempted += 1;
                let t0 = clock.now_ns();
                match bench.sched.submit(request) {
                    Ok(id) => {
                        by_id.insert(id, phase.requests.len());
                        *slot = Some(phase.requests.len());
                        phase.requests.push(RequestRecord {
                            index,
                            id,
                            max_new_tokens,
                            submit_ns: t0,
                            timed,
                            admit_pos: None,
                            finish_pos: None,
                            metrics: None,
                        });
                    }
                    Err(e) => phase.errors.push(format!("request {index} refused: {e}")),
                }
            }
        }
        if in_flight.iter().all(Option::is_none) {
            break;
        }

        let pos = phase.ticks.len();
        probe.set_tick(pos as u64);
        let clock_before = bench.sched.clock().get();
        let start_ns = clock.now_ns();
        let outcome = bench.sched.tick();
        let end_ns = clock.now_ns();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                for &r in in_flight.iter().flatten() {
                    let index = phase.requests[r].index;
                    phase
                        .errors
                        .push(format!("request {index} lost: tick {pos} failed: {e}"));
                }
                break;
            }
        };
        phase.ticks.push(TickRecord {
            start_ns,
            end_ns,
            clock_before,
            clock_after: bench.sched.clock().get(),
            prefill_tokens: outcome.prefill_tokens,
            decode_tokens: outcome.decode_tokens,
        });
        for id in &outcome.admitted {
            let session = bench.sessions;
            bench.sessions += 1;
            if let Some(&r) = by_id.get(id) {
                phase.requests[r].admit_pos = Some(pos);
                phase.session_requests.insert(session, r);
            }
        }
        for id in outcome.completed.iter().chain(&outcome.cancelled) {
            if let Some(&r) = by_id.get(id) {
                phase.requests[r].finish_pos = Some(pos);
                for slot in in_flight.iter_mut() {
                    if *slot == Some(r) {
                        *slot = None;
                    }
                }
            }
        }
        if !timed && !outcome.completed.is_empty() {
            timed = true;
            phase.window = phase.ticks.len();
            phase.start_ns = end_ns;
            (counts_before, prefix_before, window_clock) = open(bench);
        }
    }

    phase.end_ns = phase.ticks.last().map_or(phase.start_ns, |t| t.end_ns);
    for metrics in bench.sched.report().requests {
        if let Some(&r) = by_id.get(&metrics.id) {
            phase.requests[r].metrics = Some(metrics);
        }
    }
    phase.counts = probe.counts().since(&counts_before);
    phase.spans = probe.take_spans();
    phase.prefix = prefix_before.zip(bench.sched.engine().prefix_store_stats());
    phase.modeled_s = bench.sched.clock().get() - window_clock;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of back-to-back ticks with 1 ns gaps and the given wall
    /// durations (ns); each tick decodes one token in 0.1 modeled seconds.
    /// One request is submitted 1 ns after tick 0 and finishes in the last
    /// tick; the timed window opens after tick 0.
    fn phase(durations: &[u64]) -> Phase {
        let mut ticks = Vec::new();
        let mut t = 1_000;
        for (i, &ns) in durations.iter().enumerate() {
            ticks.push(TickRecord {
                start_ns: t + 1,
                end_ns: t + 1 + ns,
                clock_before: i as f64 * 0.1,
                clock_after: (i + 1) as f64 * 0.1,
                prefill_tokens: 0,
                decode_tokens: 1,
            });
            t += 1 + ns;
        }
        Phase {
            start_ns: ticks[0].end_ns,
            end_ns: t,
            requests: vec![RequestRecord {
                index: 0,
                id: RequestId(0),
                max_new_tokens: durations.len() - 1,
                submit_ns: ticks[0].end_ns + 1,
                timed: true,
                admit_pos: Some(1),
                finish_pos: Some(durations.len() - 1),
                metrics: None,
            }],
            ticks,
            window: 1,
            attempted: 1,
            errors: Vec::new(),
            counts: Counts::default(),
            spans: Vec::new(),
            session_requests: BTreeMap::new(),
            prefix: None,
            modeled_s: 0.0,
        }
    }

    #[test]
    fn median_phase_takes_each_ticks_median_over_repeats() {
        // Each repeat has one slow tick, in a different place.
        let repeats = [
            phase(&[10, 20, 30]),
            phase(&[10, 200, 30]),
            phase(&[100, 20, 31]),
        ];
        let median = median_phase(&repeats).unwrap();
        let durations: Vec<u64> = median.ticks.iter().map(TickRecord::ns).collect();
        assert_eq!(durations, vec![10, 20, 30]);
        // Same origin, gaps kept, window opens at the end of tick 0.
        assert_eq!(median.ticks[0].start_ns, repeats[0].ticks[0].start_ns);
        assert_eq!(median.ticks[1].start_ns, median.ticks[0].end_ns + 1);
        assert_eq!(median.start_ns, median.ticks[0].end_ns);
        assert_eq!(median.wall_ns(), 1 + 20 + 1 + 30);
        assert_eq!(median.requests[0].submit_ns, median.ticks[0].end_ns + 1);
        // One repeat is its own median.
        let single = median_phase(&repeats[1..2]).unwrap();
        assert_eq!(single.ticks, repeats[1].ticks);
        assert_eq!(single.start_ns, repeats[1].start_ns);
    }

    #[test]
    fn median_phase_refuses_repeats_that_served_other_ticks() {
        let mut other = phase(&[10, 20, 30]);
        other.ticks[2].decode_tokens = 2;
        let err = median_phase(&[phase(&[10, 20, 30]), other]).unwrap_err();
        assert!(err.contains("repeat 1"), "{err}");
        let mut late = phase(&[10, 20, 30]);
        late.requests[0].finish_pos = Some(1);
        assert!(median_phase(&[phase(&[10, 20, 30]), late]).is_err());
        assert!(median_phase(&[]).is_err());
    }
}
