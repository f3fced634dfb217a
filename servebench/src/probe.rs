//! Bench-side instrumentation: a span recorder and a timing
//! [`SelectorFactory`] wrapper around the engine's selection policy.
//!
//! Everything here observes the library from outside. The scheduler tick and
//! request submission are timed by the closed loop around the public calls; the
//! `core` layer (ClusterKV's k-means, incremental clustering and cluster
//! selection) is timed by [`TimedFactory`], which the benchmark installs as
//! the engine's policy. Its selectors forward **every** [`TokenSelector`]
//! method to the wrapped selector — a method left on its trait default would
//! silently switch off prefix-state adoption, cache warming or prefetch
//! hints and change what the engine does.
//!
//! Counts are recorded in every run; clock reads and spans only when the
//! probe is tracing. Only the calls that feed a reported metric get a span
//! kind of their own; the other methods are forwarded untimed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use clusterkv_model::policy::{HeadContext, SharedPrefixState};
use clusterkv_model::{
    KvResidency, ObserveEvent, PageRequest, SelectionPlan, SelectionRequest, SelectorFactory,
    TokenSelector,
};

use crate::clock::WallClock;

/// Which call into the `core` crate (ClusterKV) a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// `TokenSelector::plan` (cluster selection on selective steps).
    Plan,
    /// `observe(PrefillDone)` or a monolithic `observe(Prefill)`: ClusterKV's
    /// prefill k-means.
    Kmeans,
    /// `observe(PrefillChunk)`: buffering one prompt chunk's keys.
    ChunkObserve,
    /// `observe(Append)`: incremental decode clustering.
    Append,
}

/// One timed call. Times are nanoseconds on the run's [`WallClock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What was timed.
    pub kind: SpanKind,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call.
    pub end_ns: u64,
    /// Scheduler tick the call ran in (the parent span).
    pub tick: u64,
    /// Engine session ordinal (creation order) the call served; the closed
    /// loop maps ordinals to requests.
    pub session: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls counted in every run, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `plan` calls.
    PlanCalls,
    /// `plan` calls that returned a selection (fewer tokens than the
    /// context) rather than the full context.
    PlanSelective,
    /// Sum of `PolicyStats::scored_vectors` over returned plans.
    ScoredVectors,
    /// Prefill k-means runs (`observe(PrefillDone)` or `observe(Prefill)`).
    Kmeans,
}

const COUNTERS: usize = 4;

/// A snapshot of every [`Counter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; COUNTERS]);

impl Counts {
    /// One counter's value.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Counts accumulated since `before`.
    pub fn since(&self, before: &Counts) -> Counts {
        let mut out = *self;
        for (o, b) in out.0.iter_mut().zip(before.0) {
            *o -= b;
        }
        out
    }
}

/// Shared recorder behind every timed selector.
#[derive(Debug)]
pub struct Probe {
    clock: WallClock,
    tracing: bool,
    tick: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: [AtomicU64; COUNTERS],
}

impl Probe {
    /// A probe on `clock`, recording spans when `tracing`.
    pub fn new(clock: WallClock, tracing: bool) -> Arc<Self> {
        Arc::new(Self {
            clock,
            tracing,
            tick: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Default::default(),
        })
    }

    /// The run's clock.
    pub fn clock(&self) -> WallClock {
        self.clock
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Set the tick that subsequent spans belong to.
    pub fn set_tick(&self, tick: u64) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    /// Start timing a call: the current time when tracing, else `None` (no
    /// clock read).
    pub fn begin(&self) -> Option<u64> {
        self.tracing.then(|| self.clock.now_ns())
    }

    /// Finish a call started with [`begin`](Self::begin).
    pub fn end(&self, kind: SpanKind, begin: Option<u64>, session: u64) {
        if let Some(start_ns) = begin {
            let end_ns = self.clock.now_ns();
            let span = Span {
                kind,
                start_ns,
                end_ns,
                tick: self.tick.load(Ordering::Relaxed),
                session,
            };
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(span);
        }
    }

    /// Add to a counter.
    pub fn bump(&self, counter: Counter, by: u64) {
        self.counts[counter as usize].fetch_add(by, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn counts(&self) -> Counts {
        Counts(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::Relaxed)
        }))
    }

    /// Remove and return every recorded span.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// [`SelectorFactory`] wrapper that times and counts calls into the wrapped
/// policy and forwards every [`TokenSelector`] method.
pub struct TimedFactory {
    inner: Box<dyn SelectorFactory>,
    probe: Arc<Probe>,
    selectors_per_session: u64,
    created: AtomicU64,
}

impl TimedFactory {
    /// Wrap `inner`. The engine creates `selectors_per_session` selectors
    /// (one per selective-layer query head) for each session, in session
    /// order, which is how a selector learns its session ordinal.
    pub fn new(
        inner: Box<dyn SelectorFactory>,
        probe: Arc<Probe>,
        selectors_per_session: usize,
    ) -> Self {
        Self {
            inner,
            probe,
            selectors_per_session: selectors_per_session.max(1) as u64,
            created: AtomicU64::new(0),
        }
    }
}

impl SelectorFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create(&self, ctx: HeadContext) -> Box<dyn TokenSelector> {
        let n = self.created.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedSelector {
            inner: self.inner.create(ctx),
            probe: Arc::clone(&self.probe),
            session: n / self.selectors_per_session,
        })
    }
}

/// One wrapped selector; see the module docs.
struct TimedSelector {
    inner: Box<dyn TokenSelector>,
    probe: Arc<Probe>,
    session: u64,
}

impl TokenSelector for TimedSelector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, event: ObserveEvent<'_>) {
        let kind = match event {
            ObserveEvent::Prefill { .. } | ObserveEvent::PrefillDone { .. } => SpanKind::Kmeans,
            ObserveEvent::PrefillChunk { .. } => SpanKind::ChunkObserve,
            ObserveEvent::Append { .. } => SpanKind::Append,
        };
        let begin = self.probe.begin();
        self.inner.observe(event);
        self.probe.end(kind, begin, self.session);
        if kind == SpanKind::Kmeans {
            self.probe.bump(Counter::Kmeans, 1);
        }
    }

    fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
        let begin = self.probe.begin();
        let plan = self.inner.plan(request);
        self.probe.end(SpanKind::Plan, begin, self.session);
        self.probe.bump(Counter::PlanCalls, 1);
        // Judged by what came back, not by the request: a policy that
        // returned the whole context over budget did not select.
        if plan.indices.len() < request.num_tokens {
            self.probe.bump(Counter::PlanSelective, 1);
        }
        self.probe
            .bump(Counter::ScoredVectors, plan.stats.scored_vectors);
        plan
    }

    fn page_table(&self) -> KvResidency {
        self.inner.page_table()
    }

    fn export_prefill_state(&self) -> Option<SharedPrefixState> {
        self.inner.export_prefill_state()
    }

    fn prefetch_hint(
        &mut self,
        request: SelectionRequest<'_>,
        lookahead_tokens: usize,
    ) -> Vec<PageRequest> {
        self.inner.prefetch_hint(request, lookahead_tokens)
    }

    fn adopt_prefill_state(&mut self, state: &SharedPrefixState, total_tokens: usize) -> bool {
        self.inner.adopt_prefill_state(state, total_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clusterkv_kvcache::types::Budget;
    use clusterkv_model::PolicyStats;
    use clusterkv_tensor::Matrix;

    /// Records which trait methods reached it and returns recognisable
    /// values from each. `plan` selects the last token (scoring 5 vectors)
    /// for a query whose first entry is positive, and otherwise returns the
    /// whole context whatever the budget.
    #[derive(Default)]
    struct Recorder {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    impl TokenSelector for Recorder {
        fn name(&self) -> &str {
            "Recorder"
        }
        fn observe(&mut self, _event: ObserveEvent<'_>) {
            self.calls.lock().unwrap().push("observe");
        }
        fn plan(&mut self, request: SelectionRequest<'_>) -> SelectionPlan {
            self.calls.lock().unwrap().push("plan");
            if request.query[0] > 0.0 {
                SelectionPlan::new(vec![request.num_tokens - 1]).with_stats(PolicyStats {
                    scored_vectors: 5,
                    ..PolicyStats::default()
                })
            } else {
                SelectionPlan::full(request.num_tokens)
            }
        }
        fn page_table(&self) -> KvResidency {
            self.calls.lock().unwrap().push("page_table");
            KvResidency::Paged(vec![PageRequest::new(3, 4)])
        }
        fn export_prefill_state(&self) -> Option<SharedPrefixState> {
            self.calls.lock().unwrap().push("export_prefill_state");
            Some(SharedPrefixState {
                fingerprint: 42,
                bytes: clusterkv_kvcache::types::Bytes(1),
                state: Arc::new(()),
            })
        }
        fn prefetch_hint(&mut self, _r: SelectionRequest<'_>, _l: usize) -> Vec<PageRequest> {
            self.calls.lock().unwrap().push("prefetch_hint");
            vec![PageRequest::new(7, 2)]
        }
        fn adopt_prefill_state(&mut self, state: &SharedPrefixState, _t: usize) -> bool {
            self.calls.lock().unwrap().push("adopt_prefill_state");
            state.fingerprint == 42
        }
    }

    struct RecorderFactory(Arc<Mutex<Vec<&'static str>>>);

    impl SelectorFactory for RecorderFactory {
        fn name(&self) -> &str {
            "Recorder"
        }
        fn create(&self, _ctx: HeadContext) -> Box<dyn TokenSelector> {
            Box::new(Recorder {
                calls: Arc::clone(&self.0),
            })
        }
    }

    #[test]
    fn wrapper_forwards_every_selector_method() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe::new(WallClock::start(), true);
        let factory = TimedFactory::new(
            Box::new(RecorderFactory(Arc::clone(&calls))),
            Arc::clone(&probe),
            2,
        );
        let ctx = HeadContext {
            layer: 1,
            head: 0,
            head_dim: 2,
        };
        let _first = factory.create(ctx);
        let _second = factory.create(ctx);
        let mut sel = factory.create(ctx); // first selector of session 1
        assert_eq!(sel.name(), "Recorder");
        let keys = Matrix::zeros(3, 2);
        sel.observe(ObserveEvent::PrefillChunk {
            start: 0,
            keys: &keys,
        });
        sel.observe(ObserveEvent::PrefillDone { total_tokens: 3 });
        sel.observe(ObserveEvent::Append {
            position: 3,
            key: &[0.0, 0.0],
        });
        let query = [1.0, 0.0];
        let request = SelectionRequest::new(&query, 300, Budget::new(256));
        assert_eq!(sel.plan(request).indices, vec![299]);
        // Over budget too, but the policy returns the whole context: not a
        // selective plan.
        let full_query = [0.0, 1.0];
        let full = SelectionRequest::new(&full_query, 300, Budget::new(256));
        assert_eq!(sel.plan(full).indices.len(), 300);
        assert_eq!(
            sel.page_table(),
            KvResidency::Paged(vec![PageRequest::new(3, 4)])
        );
        let state = sel.export_prefill_state().expect("forwarded");
        assert_eq!(state.fingerprint, 42);
        assert_eq!(sel.prefetch_hint(request, 16), vec![PageRequest::new(7, 2)]);
        assert!(sel.adopt_prefill_state(&state, 3));
        assert_eq!(
            *calls.lock().unwrap(),
            vec![
                "observe",
                "observe",
                "observe",
                "plan",
                "plan",
                "page_table",
                "export_prefill_state",
                "prefetch_hint",
                "adopt_prefill_state"
            ]
        );
        let counts = probe.counts();
        assert_eq!(counts.get(Counter::PlanCalls), 2);
        assert_eq!(counts.get(Counter::PlanSelective), 1);
        assert_eq!(counts.get(Counter::ScoredVectors), 5);
        assert_eq!(counts.get(Counter::Kmeans), 1);
        let spans = probe.take_spans();
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::ChunkObserve,
                SpanKind::Kmeans,
                SpanKind::Append,
                SpanKind::Plan,
                SpanKind::Plan
            ]
        );
        assert!(spans.iter().all(|s| s.session == 1));
    }

    #[test]
    fn untraced_probe_counts_without_spans() {
        let probe = Probe::new(WallClock::start(), false);
        assert_eq!(probe.begin(), None);
        probe.end(SpanKind::Plan, None, 0);
        probe.bump(Counter::PlanCalls, 2);
        assert!(probe.take_spans().is_empty());
        let before = Counts::default();
        assert_eq!(probe.counts().since(&before).get(Counter::PlanCalls), 2);
    }
}
