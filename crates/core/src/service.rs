//! Batched multi-instance serving of the Theorem 1.1 reduction.
//!
//! Every earlier layer executes one reduction per process invocation,
//! but the reduction is embarrassingly *request*-parallel: each
//! instance is an independent hypergraph + oracle run. [`Service`] is
//! the missing subsystem — a bounded-queue, fixed-worker-pool
//! execution engine that turns the reproduction into something that
//! can serve a stream of instances:
//!
//! * **Bounded admission with explicit backpressure.** A submission
//!   finds the queue full and either is rejected with a typed
//!   [`QueueFull`] (returning the request to the caller) or waits for
//!   a worker to dequeue, per its [`Admission`]; the queue never grows
//!   past [`ServiceConfig::queue_capacity`].
//! * **Fixed worker pool, long-lived workspaces.** Each worker thread
//!   owns one [`PhaseWorkspace`] for its whole life, so steady-state
//!   requests reuse its bitset scratch and oracle memo instead of
//!   hitting the allocator.
//! * **Per-request deadlines, cooperative cancellation.** A request's
//!   deadline is measured from *submission*; the resilient driver
//!   checks it at every phase boundary (as
//!   [`reduce_cf_resilient_with_workspace`] does) and an overdue run stops
//!   with [`RequestOutcome::DeadlineExceeded`] after a whole number of
//!   committed phases. A workspace carries no semantic state, so the
//!   worker's next request is unaffected.
//! * **Graceful drain.** [`Service::shutdown`] stops admission,
//!   lets the workers finish everything already queued, joins them,
//!   and hands back the telemetry pipeline for reporting.
//!
//! Requests run through the **resilient** driver (`crate::resilient`),
//! so per-request fault tolerance — validation, retries, fallback
//! chains — composes with batching for free, and a request whose
//! oracle chain recovers from injected faults still produces the same
//! result lines as a clean run (pinned by the batch equivalence
//! suite). Telemetry flows through the service's shared
//! [`Telemetry`] pipeline: queue-depth and queue-wait samples on
//! admission/dequeue, one `service-request` span per request (indexed
//! by admission sequence number) with the request's `reduction` span
//! tree under it, and per-request latency histograms, all through the
//! existing [`Sink`] machinery.
//!
//! [`reduce_cf_resilient_with_workspace`]: crate::reduce_cf_resilient_with_workspace

use crate::protocol::{OUTCOME_DEADLINE_EXCEEDED, OUTCOME_FAILED, OUTCOME_OK};
use crate::reduction::ReductionError;
use crate::resilient::{run_phases, ResilientConfig};
use crate::sync::lock_unpoisoned;
use crate::workspace::PhaseWorkspace;
use pslocal_graph::Hypergraph;
use pslocal_maxis::{CrashSignal, MaxIsOracle};
use pslocal_telemetry::{names, span, Counter, Histogram, Sink, Telemetry};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on the admission queue when none is configured.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// An oracle a request can carry across the service's thread boundary.
pub type BoxedOracle = Box<dyn MaxIsOracle + Send + Sync>;

/// Pool shape of a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (clamped to ≥ 1). Each owns one long-lived
    /// [`PhaseWorkspace`].
    pub workers: usize,
    /// Admission-queue bound (clamped to ≥ 1): submissions beyond it
    /// are rejected with [`QueueFull`] or wait, per their [`Admission`].
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// `workers` workers over the [`DEFAULT_QUEUE_CAPACITY`] queue.
    pub fn new(workers: usize) -> Self {
        ServiceConfig { workers, queue_capacity: DEFAULT_QUEUE_CAPACITY }
    }

    /// Replaces the admission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// One reduction instance submitted to the service: the hypergraph,
/// the oracle fallback chain that should solve it (owned, so each
/// request's oracle state is private to it), the reduction
/// configuration, and an optional deadline measured from submission.
pub struct ServiceRequest {
    /// Caller-chosen identifier echoed on the [`ServiceResponse`].
    pub id: String,
    /// The instance to reduce.
    pub hypergraph: Hypergraph,
    /// Oracle chain (`chain[0]` primary, rest fallbacks) — exactly the
    /// resilient driver's contract.
    pub chain: Vec<BoxedOracle>,
    /// Reduction + resilience configuration.
    pub config: ResilientConfig,
    /// Wall-clock budget measured from submission; `None` = no limit.
    pub deadline: Option<Duration>,
}

impl ServiceRequest {
    /// A request with no deadline.
    pub fn new(
        id: impl Into<String>,
        hypergraph: Hypergraph,
        chain: Vec<BoxedOracle>,
        config: ResilientConfig,
    ) -> Self {
        ServiceRequest { id: id.into(), hypergraph, chain, config, deadline: None }
    }

    /// Sets the wall-clock budget, measured from submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl fmt::Debug for ServiceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRequest")
            .field("id", &self.id)
            .field("edges", &self.hypergraph.edge_count())
            .field("chain", &self.chain.iter().map(|o| o.name()).collect::<Vec<_>>())
            .field("k", &self.config.base.k)
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// What a submission does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Reject at once with [`QueueFull`]: typed load shedding, for a
    /// front end whose clients can retry (`pslocal serve`).
    Shed,
    /// Wait until a worker dequeues, so the queue bounds how many
    /// requests the submitter holds in flight (`pslocal batch`). A
    /// draining service still rejects.
    Wait,
}

/// Typed backpressure: the admission queue was at capacity (or the
/// service was draining), so the request was **not** enqueued — it is
/// handed back to the caller untouched for retry or rejection
/// reporting.
pub struct QueueFull {
    /// The queue bound that was hit.
    pub capacity: usize,
    /// The rejected request, returned to the caller.
    pub request: ServiceRequest,
}

impl fmt::Debug for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueFull")
            .field("capacity", &self.capacity)
            .field("request", &self.request.id)
            .finish()
    }
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "admission queue full (capacity {}): request {:?} rejected",
            self.capacity, self.request.id
        )
    }
}

impl Error for QueueFull {}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The reduction completed; the fields mirror the CLI result line.
    Ok {
        /// Phases the reduction used.
        phases: usize,
        /// Total independent-set size over all phases (`Σ|I_i|`).
        set_size: usize,
        /// Colors of the output multicoloring.
        colors: usize,
    },
    /// The deadline passed at a phase boundary (cooperative
    /// cancellation; the worker and its workspace stay healthy).
    DeadlineExceeded {
        /// The first phase that did not run.
        phase: usize,
    },
    /// The reduction failed (driver error or a panic outside the
    /// oracle boundary).
    Failed {
        /// The stringified error.
        error: String,
    },
}

impl RequestOutcome {
    /// The stable outcome label the JSONL result schema uses.
    pub fn label(&self) -> &'static str {
        match self {
            RequestOutcome::Ok { .. } => OUTCOME_OK,
            RequestOutcome::DeadlineExceeded { .. } => OUTCOME_DEADLINE_EXCEEDED,
            RequestOutcome::Failed { .. } => OUTCOME_FAILED,
        }
    }
}

/// One completed request, in completion order.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The request's caller-chosen id.
    pub id: String,
    /// How it ended.
    pub outcome: RequestOutcome,
    /// Time spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// End-to-end time, submission to completion.
    pub latency: Duration,
}

/// What [`Service::shutdown`] hands back after the drain.
#[derive(Debug)]
pub struct ServiceReport<S: Sink> {
    /// Responses completed during the drain that the caller had not
    /// yet received.
    pub drained: Vec<ServiceResponse>,
    /// The telemetry pipeline, recovered for reporting.
    pub telemetry: Telemetry<S>,
}

/// One queued request plus its admission bookkeeping and the callback
/// its response is delivered to.
struct Queued {
    request: ServiceRequest,
    submitted: Instant,
    seq: u64,
    deliver: Box<dyn FnOnce(ServiceResponse) + Send>,
}

/// Queue state guarded by one mutex: the deque, the admission flag
/// (cleared by shutdown so workers drain and exit), and the admission
/// sequence counter.
struct QueueState {
    queue: VecDeque<Queued>,
    accepting: bool,
    next_seq: u64,
}

struct Shared<S: Sink> {
    state: Mutex<QueueState>,
    /// Signalled on enqueue and at shutdown: wakes an idle worker.
    available: Condvar,
    /// Signalled on dequeue: wakes a submitter that waits for room.
    room: Condvar,
    capacity: usize,
    tel: Telemetry<S>,
}

/// The batched execution engine — see the [module docs](self).
///
/// # Examples
///
/// ```
/// use pslocal_core::service::{Service, ServiceConfig, ServiceRequest};
/// use pslocal_core::ResilientConfig;
/// use pslocal_graph::Hypergraph;
/// use pslocal_maxis::GreedyOracle;
/// use pslocal_telemetry::{NullSink, Telemetry};
///
/// let service = Service::start(ServiceConfig::new(2), Telemetry::disabled());
/// let h = Hypergraph::from_edges(4, [vec![0, 1], vec![2, 3]]).unwrap();
/// service
///     .submit(ServiceRequest::new(
///         "r0",
///         h,
///         vec![Box::new(GreedyOracle)],
///         ResilientConfig::new(2),
///     ))
///     .unwrap();
/// let response = service.recv().expect("one response");
/// assert_eq!(response.outcome.label(), "ok");
/// let report = service.shutdown();
/// assert!(report.drained.is_empty());
/// ```
pub struct Service<S: Sink + Send + Sync + 'static> {
    shared: Arc<Shared<S>>,
    workers: Vec<JoinHandle<()>>,
    /// The completion channel behind [`submit`](Self::submit) and
    /// [`recv`](Self::recv). The receiver is Mutex-wrapped so `Service`
    /// is `Sync` and a front end can share it behind an `Arc` (the TCP
    /// server's connection threads submit through one pool).
    results_tx: mpsc::Sender<ServiceResponse>,
    results: Mutex<mpsc::Receiver<ServiceResponse>>,
}

impl<S: Sink + Send + Sync + 'static> Service<S> {
    /// Spawns the worker pool and starts accepting submissions.
    pub fn start(config: ServiceConfig, tel: Telemetry<S>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), accepting: true, next_seq: 0 }),
            available: Condvar::new(),
            room: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            tel,
        });
        let (results_tx, results) = mpsc::channel();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pslocal-service-{i}"))
                    .spawn(move || worker_loop(shared))
                    // pslocal: allow(panic-path, "thread spawn fails only on OS resource exhaustion at startup; there is no degraded mode to fall back to")
                    .expect("spawn service worker")
            })
            .collect();
        Service { shared, workers, results_tx, results: Mutex::new(results) }
    }

    /// Admits `request` into the bounded queue, or rejects it with
    /// [`QueueFull`] when the queue is at capacity or the service is
    /// draining ([`Admission::Shed`]). Never blocks on a full queue —
    /// backpressure is the caller's to handle.
    ///
    /// # Errors
    ///
    /// [`QueueFull`], carrying the request back to the caller.
    // The Err variant carries the whole request back by design — that
    // is the point of typed backpressure (same trade-off as the
    // resilient entry points).
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: ServiceRequest) -> Result<(), QueueFull> {
        self.submit_routed(request, self.results_tx.clone())
    }

    /// [`submit`](Self::submit) under `admission`, with the response
    /// handed to `deliver` instead of the service-wide
    /// [`recv`](Self::recv) channel. This is how a front end
    /// ([`serve_lines`](crate::server::serve_lines)) routes each
    /// completion back to the stream that submitted it: one delivery
    /// target per stream, shared worker pool.
    ///
    /// `deliver` runs on the worker thread that finished the request,
    /// so it must be cheap and non-blocking — enqueue onto a channel,
    /// don't do I/O.
    ///
    /// A delivered response is **never** part of
    /// [`shutdown`](Self::shutdown)'s `drained` list — it went to
    /// `deliver` (which may discard it, the hung-up-client case).
    ///
    /// # Errors
    ///
    /// [`QueueFull`], carrying the request back to the caller: under
    /// [`Admission::Wait`] only while the service drains.
    #[allow(clippy::result_large_err)]
    pub fn submit_with(
        &self,
        request: ServiceRequest,
        admission: Admission,
        deliver: impl FnOnce(ServiceResponse) + Send + 'static,
    ) -> Result<(), QueueFull> {
        let depth = {
            let mut st = lock_unpoisoned(&self.shared.state);
            while admission == Admission::Wait
                && st.accepting
                && st.queue.len() >= self.shared.capacity
            {
                st = self.shared.room.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if !st.accepting || st.queue.len() >= self.shared.capacity {
                drop(st);
                self.shared.tel.add(Counter::RequestsRejected, 1);
                return Err(QueueFull { capacity: self.shared.capacity, request });
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            let deliver = Box::new(deliver);
            st.queue.push_back(Queued { request, submitted: Instant::now(), seq, deliver });
            st.queue.len()
        };
        self.shared.tel.add(Counter::RequestsAdmitted, 1);
        self.shared.tel.sample(Histogram::QueueDepth, depth as u64);
        self.shared.available.notify_one();
        Ok(())
    }

    /// [`submit_with`](Self::submit_with) delivering into a plain
    /// channel, for callers that want to block on a receiver.
    ///
    /// # Errors
    ///
    /// [`QueueFull`], carrying the request back to the caller.
    #[allow(clippy::result_large_err)]
    pub fn submit_routed(
        &self,
        request: ServiceRequest,
        reply: mpsc::Sender<ServiceResponse>,
    ) -> Result<(), QueueFull> {
        self.submit_with(request, Admission::Shed, move |response| {
            let _ = reply.send(response);
        })
    }

    /// The telemetry pipeline the service records through — front ends
    /// layered on top (the TCP server) instrument themselves through
    /// the same pipeline so one sink sees the whole request path.
    pub fn telemetry(&self) -> &Telemetry<S> {
        &self.shared.tel
    }

    /// Blocks for the next response of a [`submit`](Self::submit)ted
    /// request, in completion order. The service holds the channel's
    /// sender, so this waits as long as the service lives: call it at
    /// most once per request submitted.
    pub fn recv(&self) -> Option<ServiceResponse> {
        lock_unpoisoned(&self.results).recv().ok()
    }

    /// Graceful drain: stops admission (subsequent [`submit`]s are
    /// rejected), lets the workers finish everything already queued,
    /// joins them, and returns the not-yet-received responses plus the
    /// telemetry pipeline.
    ///
    /// [`submit`]: Self::submit
    ///
    /// # Panics
    ///
    /// Panics if a worker thread died of an unexpected panic (the
    /// workers themselves isolate oracle panics, so this indicates a
    /// bug — or a deliberately injected process crash).
    pub fn shutdown(self) -> ServiceReport<S> {
        lock_unpoisoned(&self.shared.state).accepting = false;
        self.shared.available.notify_all();
        for worker in self.workers {
            // pslocal: allow(panic-path, "documented contract: a worker panic is a bug (workers isolate oracle panics) and must surface at shutdown")
            worker.join().expect("service worker panicked");
        }
        let drained = lock_unpoisoned(&self.results).try_iter().collect();
        let shared = Arc::try_unwrap(self.shared)
            // pslocal: allow(panic-path, "all workers joined on the lines above, so no Arc clone can remain; a failure here is unreachable by construction")
            .unwrap_or_else(|_| unreachable!("all workers joined, no clones remain"));
        ServiceReport { drained, telemetry: shared.tel }
    }
}

/// Worker body: own one workspace for life, drain the queue, exit when
/// the queue is empty and the service stopped accepting.
fn worker_loop<S: Sink + Send + Sync>(shared: Arc<Shared<S>>) {
    let mut ws = PhaseWorkspace::new();
    loop {
        let job = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if !st.accepting {
                    break None;
                }
                st = shared.available.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        shared.room.notify_one();
        let Queued { request, submitted, seq, deliver } = job;
        let response = execute(&shared, request, submitted, seq, &mut ws);
        shared.tel.add(Counter::RequestsCompleted, 1);
        deliver(response);
    }
}

/// Runs one request through the resilient driver and maps the result
/// to a response.
fn execute<S: Sink>(
    shared: &Shared<S>,
    request: ServiceRequest,
    submitted: Instant,
    seq: u64,
    ws: &mut PhaseWorkspace,
) -> ServiceResponse {
    let queue_wait = submitted.elapsed();
    shared.tel.sample(Histogram::QueueWaitNs, queue_wait.as_nanos() as u64);
    shared.tel.add(Counter::QueueWaitNs, queue_wait.as_nanos() as u64);
    // A request whose deadline expired while it was still queued is
    // dead on arrival: the driver checks the deadline before it builds
    // `G_k` and answers `DeadlineExceeded { phase: 0 }`, inside this
    // request's span like every other outcome.
    let deadline = request.deadline.map(|d| submitted + d);
    let req_span = span!(shared.tel, names::SERVICE_REQUEST, seq);
    let chain: Vec<&dyn MaxIsOracle> =
        request.chain.iter().map(|o| o.as_ref() as &dyn MaxIsOracle).collect();
    // The resilient driver already isolates oracle panics; this outer
    // catch covers driver bugs so one poisoned request cannot take its
    // worker (and eventually the pool) down with it. Injected process
    // crashes stay fatal, as everywhere else.
    let config = request.config;
    let result = catch_unwind(AssertUnwindSafe(
        #[allow(clippy::result_large_err)]
        || {
            let (h, acquire) = (&request.hypergraph, config.acquire());
            run_phases(h, &chain, config.base, acquire, &req_span, None, ws, deadline)
        },
    ));
    let outcome = match result {
        Ok(Ok((out, _))) => RequestOutcome::Ok {
            phases: out.reduction.phases_used,
            set_size: out.reduction.records.iter().map(|r| r.independent_set_size).sum(),
            colors: out.reduction.total_colors,
        },
        Ok(Err(failure)) => match failure.error {
            ReductionError::DeadlineExceeded { phase } => {
                shared.tel.add(Counter::DeadlinesExceeded, 1);
                RequestOutcome::DeadlineExceeded { phase }
            }
            error => {
                shared.tel.add(Counter::RequestsFailed, 1);
                RequestOutcome::Failed { error: error.to_string() }
            }
        },
        Err(payload) => {
            if payload.downcast_ref::<CrashSignal>().is_some() {
                resume_unwind(payload);
            }
            shared.tel.add(Counter::RequestsFailed, 1);
            RequestOutcome::Failed { error: "panic outside the oracle boundary".to_string() }
        }
    };
    req_span.close();
    let latency = submitted.elapsed();
    shared.tel.sample(Histogram::RequestLatencyNs, latency.as_nanos() as u64);
    ServiceResponse { id: request.id, outcome, queue_wait, latency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pslocal_graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
    use pslocal_graph::{Graph, IndependentSet};
    use pslocal_maxis::{ApproxGuarantee, GreedyOracle};
    use pslocal_telemetry::MemorySink;
    use rand::SeedableRng;

    fn planted(seed: u64) -> pslocal_graph::Hypergraph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        planted_cf_instance(&mut rng, PlantedCfParams::new(48, 20, 3)).hypergraph
    }

    fn request(id: &str, seed: u64) -> ServiceRequest {
        ServiceRequest::new(
            id,
            planted(seed),
            vec![Box::new(GreedyOracle)],
            ResilientConfig::new(3),
        )
    }

    /// A greedy oracle that parks inside `independent_set` until the
    /// test opens its gate — pins one worker mid-request so the queue
    /// can be filled behind it deterministically.
    struct GateOracle {
        entered: Mutex<mpsc::Sender<()>>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }

    impl MaxIsOracle for GateOracle {
        fn name(&self) -> &'static str {
            "gate"
        }

        fn independent_set(&self, graph: &Graph) -> IndependentSet {
            let _ = self.entered.lock().unwrap().send(());
            let (open, cv) = &*self.gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            GreedyOracle.independent_set(graph)
        }

        fn guarantee(&self) -> ApproxGuarantee {
            GreedyOracle.guarantee()
        }
    }

    #[test]
    fn queue_full_is_typed_and_returns_the_request() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let oracle = GateOracle { entered: Mutex::new(entered_tx), gate: Arc::clone(&gate) };
        let service = Service::start(
            ServiceConfig::new(1).with_queue_capacity(1),
            Telemetry::new(MemorySink::new()),
        );
        let slow =
            ServiceRequest::new("r0", planted(1), vec![Box::new(oracle)], ResilientConfig::new(3));
        service.submit(slow).unwrap();
        // The worker is now parked inside the oracle, the queue empty.
        entered_rx.recv().unwrap();
        service.submit(request("r1", 2)).unwrap();
        let rejected = service.submit(request("r2", 3)).expect_err("queue is at capacity");
        assert_eq!(rejected.capacity, 1);
        assert_eq!(rejected.request.id, "r2");
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        let report = service.shutdown();
        let mut ids: Vec<String> = report.drained.iter().map(|r| r.id.clone()).collect();
        ids.sort();
        assert_eq!(ids, ["r0", "r1"]);
        assert!(report.drained.iter().all(|r| r.outcome.label() == "ok"));
        let sink = report.telemetry.sink();
        assert_eq!(sink.counter_total(Counter::RequestsAdmitted), 2);
        assert_eq!(sink.counter_total(Counter::RequestsRejected), 1);
        assert_eq!(sink.counter_total(Counter::RequestsCompleted), 2);
    }

    #[test]
    fn waiting_admission_holds_the_submitter_until_a_worker_dequeues() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let oracle = GateOracle { entered: Mutex::new(entered_tx), gate: Arc::clone(&gate) };
        let service = Service::start(
            ServiceConfig::new(1).with_queue_capacity(1),
            Telemetry::new(MemorySink::new()),
        );
        let slow =
            ServiceRequest::new("r0", planted(1), vec![Box::new(oracle)], ResilientConfig::new(3));
        service.submit(slow).unwrap();
        entered_rx.recv().unwrap();
        service.submit(request("r1", 2)).unwrap();
        // The queue is full and its one worker parked: a waiting
        // submission must neither be rejected nor return.
        let (done_tx, done_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let admitted = service
                    .submit_with(request("r2", 3), Admission::Wait, move |r| {
                        let _ = reply_tx.send(r);
                    })
                    .is_ok();
                done_tx.send(admitted).unwrap();
            });
            assert!(done_rx.recv_timeout(Duration::from_millis(100)).is_err(), "returned early");
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
            assert!(done_rx.recv().unwrap(), "admitted once the worker dequeued");
        });
        assert_eq!(reply_rx.recv().unwrap().outcome.label(), "ok");
        let report = service.shutdown();
        let sink = report.telemetry.sink();
        assert_eq!(sink.counter_total(Counter::RequestsAdmitted), 3);
        assert_eq!(sink.counter_total(Counter::RequestsRejected), 0);
    }

    #[test]
    fn shutdown_drains_everything_already_queued() {
        let service = Service::start(ServiceConfig::new(2), Telemetry::disabled());
        for i in 0..6 {
            service.submit(request(&format!("r{i}"), i as u64)).unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.drained.len(), 6);
        assert!(report.drained.iter().all(|r| r.outcome.label() == "ok"));
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        // `shutdown` consumes the handle, so exercise the draining
        // rejection through the shared state directly.
        let service = Service::start(ServiceConfig::new(1), Telemetry::disabled());
        service.shared.state.lock().unwrap().accepting = false;
        let err = service.submit(request("late", 9)).expect_err("draining rejects");
        assert_eq!(err.request.id, "late");
        let waiting = service.submit_with(request("later", 9), Admission::Wait, |_| {});
        assert_eq!(waiting.expect_err("draining rejects a waiting submission").request.id, "later");
        service.shared.state.lock().unwrap().accepting = true;
        service.shutdown();
    }

    #[test]
    fn zero_deadline_cancels_cooperatively_without_poisoning_the_worker() {
        let service = Service::start(ServiceConfig::new(1), Telemetry::new(MemorySink::new()));
        service.submit(request("doomed", 5).with_deadline(Duration::ZERO)).unwrap();
        let doomed = service.recv().expect("one response");
        assert_eq!(doomed.outcome, RequestOutcome::DeadlineExceeded { phase: 0 });
        // The same worker (there is only one) must serve the next
        // request cleanly, byte-identical to a fresh serial run.
        service.submit(request("healthy", 5)).unwrap();
        let healthy = service.recv().expect("one response");
        let report = service.shutdown();
        let baseline = crate::resilient::reduce_cf_resilient(
            &planted(5),
            &[&GreedyOracle],
            ResilientConfig::new(3),
        )
        .expect("baseline reduction succeeds");
        let expected = RequestOutcome::Ok {
            phases: baseline.reduction.phases_used,
            set_size: baseline.reduction.records.iter().map(|r| r.independent_set_size).sum(),
            colors: baseline.reduction.total_colors,
        };
        assert_eq!(healthy.outcome, expected);
        let sink = report.telemetry.sink();
        assert_eq!(sink.counter_total(Counter::DeadlinesExceeded), 1);
        assert_eq!(sink.counter_total(Counter::RequestsFailed), 0);
    }
}
