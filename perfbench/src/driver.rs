//! The load generator: an open-loop paced phase (latency timed from the
//! intended send instant of the seeded schedule, so a stall is charged
//! to every request it delays) and a closed-loop saturation phase, both
//! over `&dyn Admitter`. One submitter thread sleeps between due times,
//! sweeps `PendingVerdict::poll` at least every [`POLL_INTERVAL`], and
//! issues every departure; tiers that only resolve on a blocking wait
//! get helper threads that hold the waits.

use crate::stream::{materialize, Req, Stream};
use crate::trace::{Trace, NONE};
use crate::workloads::Workload;
use crossbeam::channel::{self, Receiver, Sender};
use offloadnn_core::instance::DotInstance;
use offloadnn_core::task::TaskId;
use offloadnn_serve::{Admitter, Outcome, PendingVerdict, VerdictError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Upper bound on the time between two sweeps of the outstanding
/// verdicts, hence the resolution of every latency sample.
pub const POLL_INTERVAL: Duration = Duration::from_micros(100);
/// Idle sleep of the closed loop when its window is full.
const SAT_IDLE: Duration = Duration::from_micros(50);
/// The saturation window is cut into slices of this length and the
/// throughput reported is the median slice's: a host stall empties a
/// few slices, not the median.
pub const SAT_SLICE: Duration = Duration::from_millis(50);

/// Class-by-class count of how the driver saw its requests end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub expired: u64,
    pub lost: u64,
    pub refused: u64,
    pub transport: u64,
    pub timed_out: u64,
}

impl Tally {
    pub fn observe(&mut self, result: &Result<Outcome, VerdictError>) {
        match result {
            Ok(Outcome::Admitted { .. }) => self.admitted += 1,
            Ok(Outcome::Rejected { .. }) => self.rejected += 1,
            Ok(Outcome::Shed { .. }) => self.shed += 1,
            Ok(Outcome::Expired { .. }) => self.expired += 1,
            Err(VerdictError::Lost) => self.lost += 1,
            Err(VerdictError::Refused(_)) => self.refused += 1,
            Err(VerdictError::Transport(_)) => self.transport += 1,
            Err(VerdictError::TimedOut) => self.timed_out += 1,
        }
    }

    /// Requests answered with any verdict.
    pub fn verdicts(&self) -> u64 {
        self.admitted + self.rejected + self.shed + self.expired
    }

    /// Requests that were not decided by the solver: shed, expired,
    /// lost, refused, transport and timed-out.
    pub fn failed(&self) -> u64 {
        self.attempted - self.admitted - self.rejected
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.admitted += o.admitted;
        self.rejected += o.rejected;
        self.shed += o.shed;
        self.expired += o.expired;
        self.lost += o.lost;
        self.refused += o.refused;
        self.transport += o.transport;
        self.timed_out += o.timed_out;
    }
}

/// One finished request as the resolver hands it back.
struct Done {
    req: Req,
    conn: usize,
    intended: Instant,
    submit_start: Instant,
    submit_end: Instant,
    verdict_at: Instant,
    result: Result<Outcome, VerdictError>,
}

/// Admitted tasks waiting for their logical departure: a task admitted
/// when `n` requests had been issued departs just before request
/// `n + hold` is. Counting the hold in arrivals, not in wall-clock time,
/// keeps the admitted share a property of the stream.
#[derive(Default)]
pub struct HoldHeap {
    heap: BinaryHeap<Reverse<(u64, u32, usize, u32)>>,
}

impl HoldHeap {
    pub fn admit(&mut self, seq: u32, conn: usize, root_span: u32, arrivals: u64, hold: u32) {
        self.heap.push(Reverse((arrivals + u64::from(hold), seq, conn, root_span)));
    }

    /// The next task due at `arrivals` issued requests: `(seq, conn, root span)`.
    pub fn pop_due(&mut self, arrivals: u64) -> Option<(u32, usize, u32)> {
        match self.heap.peek() {
            Some(Reverse((due, ..))) if *due <= arrivals => {
                self.heap.pop().map(|Reverse((_, seq, conn, root))| (seq, conn, root))
            }
            _ => None,
        }
    }
}

/// How requests in flight get resolved.
trait Resolver {
    fn submit(&mut self, req: Req, intended: Instant);
    fn in_flight(&self) -> usize;
    /// Sleeps `wait` (a blocking resolver: until the first result, at
    /// most `wait`), then moves every request resolved so far into
    /// `done`. The sleep is unconditional so the generator's share of a
    /// core does not depend on how the verdicts happen to trickle in.
    fn collect(&mut self, done: &mut Vec<Done>, wait: Duration);
    /// Gives up on whatever is still in flight.
    fn abandon(&mut self, done: &mut Vec<Done>);
}

struct InFlight {
    pending: PendingVerdict,
    req: Req,
    conn: usize,
    intended: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// The default: the submitter itself sweeps `PendingVerdict::poll`.
struct PollResolver<'a> {
    admitters: &'a [&'a dyn Admitter],
    template: &'a DotInstance,
    pending: Vec<InFlight>,
    refused: Vec<Done>,
}

impl Resolver for PollResolver<'_> {
    fn submit(&mut self, req: Req, intended: Instant) {
        let (task, options) = materialize(self.template, &req);
        let conn = req.seq as usize % self.admitters.len();
        let submit_start = Instant::now();
        let submitted = self.admitters[conn].submit(task, options, None);
        let submit_end = Instant::now();
        match submitted {
            Ok(pending) => {
                self.pending.push(InFlight { pending, req, conn, intended, submit_start, submit_end })
            }
            Err(e) => self.refused.push(Done {
                req,
                conn,
                intended,
                submit_start,
                submit_end,
                verdict_at: submit_end,
                result: Err(VerdictError::Refused(e.to_string())),
            }),
        }
    }

    fn in_flight(&self) -> usize {
        self.pending.len() + self.refused.len()
    }

    fn collect(&mut self, done: &mut Vec<Done>, wait: Duration) {
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        done.append(&mut self.refused);
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].pending.poll() {
                Some(result) => {
                    let f = self.pending.swap_remove(i);
                    done.push(Done {
                        req: f.req,
                        conn: f.conn,
                        intended: f.intended,
                        submit_start: f.submit_start,
                        submit_end: f.submit_end,
                        verdict_at: Instant::now(),
                        result,
                    });
                }
                None => i += 1,
            }
        }
    }

    fn abandon(&mut self, done: &mut Vec<Done>) {
        let now = Instant::now();
        for f in self.pending.drain(..) {
            done.push(Done {
                req: f.req,
                conn: f.conn,
                intended: f.intended,
                submit_start: f.submit_start,
                submit_end: f.submit_end,
                verdict_at: now,
                result: Err(VerdictError::TimedOut),
            });
        }
    }
}

/// For tiers whose verdicts only resolve on a blocking wait (the
/// federated forward path): helper threads submit and hold the wait.
struct BlockingResolver {
    jobs: Sender<(Req, Instant)>,
    results: Receiver<Done>,
    in_flight: usize,
}

fn blocking_helper(
    admitter: &dyn Admitter,
    template: &DotInstance,
    wait_bound: Duration,
    jobs: &Receiver<(Req, Instant)>,
    results: &Sender<Done>,
) {
    while let Ok((req, intended)) = jobs.recv() {
        let (task, options) = materialize(template, &req);
        let submit_start = Instant::now();
        let submitted = admitter.submit(task, options, None);
        let submit_end = Instant::now();
        let result = match submitted {
            Ok(pending) => pending.wait_timeout(wait_bound),
            Err(e) => Err(VerdictError::Refused(e.to_string())),
        };
        let done =
            Done { req, conn: 0, intended, submit_start, submit_end, verdict_at: Instant::now(), result };
        if results.send(done).is_err() {
            return;
        }
    }
}

impl Resolver for BlockingResolver {
    fn submit(&mut self, req: Req, intended: Instant) {
        self.in_flight += 1;
        self.jobs.send((req, intended)).expect("helpers outlive the phase loop");
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn collect(&mut self, done: &mut Vec<Done>, wait: Duration) {
        let before = done.len();
        while let Ok(d) = self.results.try_recv() {
            done.push(d);
        }
        if done.len() == before && !wait.is_zero() {
            if let Ok(d) = self.results.recv_timeout(wait) {
                done.push(d);
            }
        }
        self.in_flight -= done.len() - before;
    }

    fn abandon(&mut self, done: &mut Vec<Done>) {
        // Every helper wait is bounded, so each job still comes back —
        // as `TimedOut` at the latest.
        while self.in_flight > 0 {
            match self.results.recv() {
                Ok(d) => {
                    done.push(d);
                    self.in_flight -= 1;
                }
                Err(_) => break,
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Open loop on the seeded schedule.
    Paced,
    /// Closed loop with a fixed window of outstanding requests.
    Saturation,
}

/// One slice of a phase. A phase reports the median slice, so a host
/// stall (20–300 ms of one or both cores gone, seen several times a
/// minute on the sizing box) spoils a few slices and not the result.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Requests whose *intended* send instant fell into the slice …
    pub attempted: u64,
    /// … those of them resolved Admitted or Rejected within the limit,
    pub slo_hits: u64,
    /// intended send → verdict observed of every answered one,
    pub latencies_ms: Vec<f64>,
    /// and Σ priority over them, Σ priority·z over the admitted ones.
    pub offered_priority: f64,
    pub admitted_weight: f64,
    /// What happened while the slice lasted: verdicts observed, and
    /// process CPU seconds used (paced phases only).
    pub verdicts_seen: u64,
    pub cpu_s: f64,
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    pub slices: Vec<Slice>,
    /// Process CPU seconds from phase start until its last verdict.
    pub cpu_s: f64,
    pub tally: Tally,
    /// How late each request was issued against its intended instant.
    pub gen_lags_ms: Vec<f64>,
    pub departs: u64,
}

impl PhaseReport {
    /// Every latency sample of the phase, ascending.
    pub fn latencies_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.slices.iter().flat_map(|s| s.latencies_ms.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        all
    }
}

pub struct Driver<'a> {
    admitters: &'a [&'a dyn Admitter],
    template: &'a DotInstance,
    stream: Stream,
    holds: HoldHeap,
    arrivals: u64,
    /// Stream time at which the next paced phase starts.
    stream_t0: f64,
    workload: Workload,
    /// Start and slice length of the running phase.
    phase_start: Instant,
    slice_s: f64,
    /// How long a phase waits for stragglers before counting them
    /// timed out.
    pub grace: Duration,
    pub trace: Option<Trace>,
    /// Every phase of the round, warm-up included: what the ledgers of
    /// the stack must add up to.
    pub round_tally: Tally,
}

impl<'a> Driver<'a> {
    /// A driver of `workload`'s stream for `seed` over `admitters`, one
    /// per generator connection.
    pub fn new(
        admitters: &'a [&'a dyn Admitter],
        template: &'a DotInstance,
        workload: &Workload,
        seed: u64,
        trace: Option<Trace>,
    ) -> Self {
        Self {
            admitters,
            template,
            stream: Stream::new(workload, template.tasks.len(), seed),
            holds: HoldHeap::default(),
            arrivals: 0,
            stream_t0: 0.0,
            workload: *workload,
            phase_start: Instant::now(),
            slice_s: workload.paced_slice_s(),
            grace: Duration::from_secs(2),
            trace,
            round_tally: Tally::default(),
        }
    }

    pub fn run_phase(&mut self, kind: PhaseKind, seconds: f64) -> PhaseReport {
        let (admitters, template) = (self.admitters, self.template);
        let report = if self.workload.blocking_waiters == 0 {
            let mut resolver = PollResolver { admitters, template, pending: Vec::new(), refused: Vec::new() };
            self.phase_loop(&mut resolver, kind, seconds)
        } else {
            let helpers = self.workload.blocking_waiters;
            let wait_bound = self.grace;
            std::thread::scope(|scope| {
                let (jobs, job_rx) = channel::unbounded();
                let (result_tx, results) = channel::unbounded();
                for _ in 0..helpers {
                    let (job_rx, result_tx) = (job_rx.clone(), result_tx.clone());
                    scope.spawn(move || {
                        blocking_helper(admitters[0], template, wait_bound, &job_rx, &result_tx)
                    });
                }
                let mut resolver = BlockingResolver { jobs, results, in_flight: 0 };
                // Dropping the resolver closes the job channel, which
                // ends the helpers before the scope joins them.
                self.phase_loop(&mut resolver, kind, seconds)
            })
        };
        self.round_tally.merge(&report.tally);
        report
    }

    fn depart(&mut self, seq: u32, conn: usize, root_span: u32, report: &mut PhaseReport) {
        report.departs += 1;
        match &mut self.trace {
            Some(trace) => {
                let start = Instant::now();
                self.admitters[conn].depart(TaskId(seq));
                trace.record(self.workload.call_spans().1, start, Instant::now(), root_span, seq);
            }
            None => self.admitters[conn].depart(TaskId(seq)),
        }
    }

    /// Issues one request: first every departure that is due, then the
    /// submit.
    fn issue(&mut self, resolver: &mut dyn Resolver, req: Req, intended: Instant, report: &mut PhaseReport) {
        while let Some((seq, conn, root)) = self.holds.pop_due(self.arrivals) {
            self.depart(seq, conn, root, report);
        }
        self.arrivals += 1;
        report.tally.attempted += 1;
        let slice = self.slice_at(report, intended);
        slice.attempted += 1;
        slice.offered_priority += priority_of(self.template, &req);
        resolver.submit(req, intended);
    }

    /// Index of the slice of the running phase that `at` falls into;
    /// past the last slice once the phase is over.
    fn slice_index(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.phase_start).as_secs_f64() / self.slice_s) as usize
    }

    /// The slice a request intended for `at` belongs to (the last one
    /// also takes the tail a phase length leaves over).
    fn slice_at<'r>(&self, report: &'r mut PhaseReport, at: Instant) -> &'r mut Slice {
        let last = report.slices.len() - 1;
        &mut report.slices[self.slice_index(at).min(last)]
    }

    fn absorb(&mut self, done: &mut Vec<Done>, report: &mut PhaseReport) {
        for d in done.drain(..) {
            report.tally.observe(&d.result);
            let latency_ms = d.verdict_at.saturating_duration_since(d.intended).as_secs_f64() * 1e3;
            let root = match &mut self.trace {
                Some(trace) => {
                    let root = trace.record("driver.request", d.intended, d.verdict_at, NONE, d.req.seq);
                    trace.record(self.workload.call_spans().0, d.submit_start, d.submit_end, root, d.req.seq);
                    trace.record("driver.wait", d.submit_end, d.verdict_at, root, d.req.seq);
                    root
                }
                None => NONE,
            };
            let Ok(outcome) = d.result else { continue };
            // Stragglers resolved after the phase ended count for no slice.
            if let Some(seen_in) = report.slices.get_mut(self.slice_index(d.verdict_at)) {
                seen_in.verdicts_seen += 1;
            }
            let slo_limit_ms = self.workload.slo_limit_ms;
            let slice = self.slice_at(report, d.intended);
            slice.latencies_ms.push(latency_ms);
            if matches!(outcome, Outcome::Admitted { .. } | Outcome::Rejected { .. })
                && latency_ms <= slo_limit_ms
            {
                slice.slo_hits += 1;
            }
            if let Outcome::Admitted { admission, .. } = outcome {
                slice.admitted_weight += priority_of(self.template, &d.req) * admission;
                self.holds.admit(d.req.seq, d.conn, root, self.arrivals, d.req.hold);
            }
        }
    }

    fn phase_loop(&mut self, resolver: &mut dyn Resolver, kind: PhaseKind, seconds: f64) -> PhaseReport {
        self.slice_s =
            if kind == PhaseKind::Paced { self.workload.paced_slice_s() } else { SAT_SLICE.as_secs_f64() };
        // Rounded before truncating: 0.3 / 0.1 is 2.9999… in floating point.
        let slices = (((seconds / self.slice_s) + 1e-9) as usize).max(1);
        let mut report = PhaseReport { slices: vec![Slice::default(); slices], ..PhaseReport::default() };
        let mut done: Vec<Done> = Vec::new();
        let cpu_before = crate::host::process_cpu_seconds();
        // CPU reading at every slice boundary passed so far.
        let mut cpu_marks = vec![cpu_before];
        let start = Instant::now();
        self.phase_start = start;
        match kind {
            PhaseKind::Paced => {
                let t0 = self.stream_t0;
                let end_s = t0 + seconds;
                self.stream_t0 = end_s;
                loop {
                    let mut next_due = None;
                    while self.stream.peek_at_s() < end_s {
                        let due = start + Duration::from_secs_f64(self.stream.peek_at_s() - t0);
                        let now = Instant::now();
                        if due > now {
                            next_due = Some(due - now);
                            break;
                        }
                        report.gen_lags_ms.push((now - due).as_secs_f64() * 1e3);
                        let req = self.stream.next_req();
                        self.issue(resolver, req, due, &mut report);
                    }
                    let wait = match (next_due, resolver.in_flight()) {
                        (None, 0) => break,
                        (None, _) => POLL_INTERVAL,
                        (Some(gap), 0) => gap,
                        (Some(gap), _) => gap.min(POLL_INTERVAL),
                    };
                    resolver.collect(&mut done, wait);
                    self.absorb(&mut done, &mut report);
                    let boundaries_passed = (start.elapsed().as_secs_f64() / self.slice_s) as usize;
                    if boundaries_passed >= cpu_marks.len() && cpu_marks.len() <= slices {
                        let cpu_now = crate::host::process_cpu_seconds();
                        cpu_marks.resize((boundaries_passed + 1).min(slices + 1), cpu_now);
                    }
                    if next_due.is_none()
                        && start.elapsed().as_secs_f64() > seconds + self.grace.as_secs_f64()
                    {
                        break;
                    }
                }
            }
            PhaseKind::Saturation => {
                let window = Duration::from_secs_f64(seconds);
                let target =
                    self.workload.sat_outstanding * self.admitters.len().max(self.workload.blocking_waiters);
                while start.elapsed() < window {
                    while resolver.in_flight() < target {
                        let req = self.stream.next_req();
                        self.issue(resolver, req, Instant::now(), &mut report);
                    }
                    resolver.collect(&mut done, SAT_IDLE);
                    self.absorb(&mut done, &mut report);
                }
                let drain_until = Instant::now() + self.grace;
                while resolver.in_flight() > 0 && Instant::now() < drain_until {
                    resolver.collect(&mut done, POLL_INTERVAL);
                    self.absorb(&mut done, &mut report);
                }
            }
        }
        resolver.abandon(&mut done);
        self.absorb(&mut done, &mut report);
        report.cpu_s = crate::host::process_cpu_seconds() - cpu_before;
        for (slice, marks) in report.slices.iter_mut().zip(cpu_marks.windows(2)) {
            slice.cpu_s = marks[1] - marks[0];
        }
        report
    }

    /// Departs every task still held, so the ledgers end with
    /// `departed == admitted`.
    pub fn release_all(&mut self) -> u64 {
        let mut report = PhaseReport::default();
        while let Some((seq, conn, root)) = self.holds.pop_due(u64::MAX) {
            self.depart(seq, conn, root, &mut report);
        }
        report.departs
    }

    pub fn into_parts(self) -> (Stream, Option<Trace>) {
        (self.stream, self.trace)
    }
}

fn priority_of(template: &DotInstance, req: &Req) -> f64 {
    (template.tasks[req.proto].priority * req.priority_factor).clamp(0.05, 1.0)
}

/// An admitter that answers `Rejected` at once: what is left is the
/// driver's own cost per request (`driver.cpu_us_per_request`).
pub struct NullAdmitter;

struct Ready(Outcome);

impl offloadnn_serve::VerdictHandle for Ready {
    fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
        Some(Ok(self.0))
    }

    fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
        Ok(self.0)
    }

    fn wait_timeout(self: Box<Self>, _timeout: Duration) -> Result<Outcome, VerdictError> {
        Ok(self.0)
    }
}

impl Admitter for NullAdmitter {
    fn submit(
        &self,
        task: offloadnn_core::task::Task,
        options: Vec<offloadnn_core::instance::PathOption>,
        _deadline: Option<Duration>,
    ) -> Result<PendingVerdict, offloadnn_serve::SubmitError> {
        std::hint::black_box(&options);
        Ok(PendingVerdict::new(task.id, Box::new(Ready(Outcome::Rejected { shard: 0 }))))
    }

    fn depart(&self, _task: TaskId) {}

    fn metrics(&self) -> Option<offloadnn_serve::MetricsSnapshot> {
        None
    }

    fn begin_drain(&self) {}

    fn tier(&self) -> &'static str {
        "null"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, WORKLOADS};
    use offloadnn_core::scenario::small_scenario;
    use offloadnn_serve::{SubmitError, VerdictHandle};
    use std::sync::Mutex;

    #[test]
    fn hold_heap_departs_each_admitted_task_exactly_once_in_due_order() {
        let mut h = HoldHeap::default();
        h.admit(1, 0, NONE, 10, 5); // due at 15
        h.admit(2, 1, NONE, 10, 1); // due at 11
        h.admit(3, 0, NONE, 12, 3); // due at 15
        assert_eq!(h.pop_due(10), None, "nothing is due before its hold elapsed");
        assert_eq!(h.pop_due(11), Some((2, 1, NONE)));
        assert_eq!(h.pop_due(14), None);
        let mut at15 = vec![h.pop_due(15), h.pop_due(15)];
        at15.sort();
        assert_eq!(at15, vec![Some((1, 0, NONE)), Some((3, 0, NONE))]);
        assert_eq!(h.pop_due(u64::MAX), None, "each task left exactly once");
    }

    /// What the scripted fake does with request `seq`.
    #[derive(Clone, Copy, PartialEq)]
    enum Script {
        Admit,
        Reject,
        RefuseSubmit,
        NeverResolve,
        /// Resolves `Rejected`, but only after this long.
        Late(Duration),
    }

    struct Scripted {
        script: fn(u32) -> Script,
        submitted: Mutex<Vec<u32>>,
        departed: Mutex<Vec<u32>>,
    }

    struct ScriptedPending {
        ready_at: Option<Instant>,
        outcome: Outcome,
    }

    impl VerdictHandle for ScriptedPending {
        fn poll(&self) -> Option<Result<Outcome, VerdictError>> {
            self.ready_at.filter(|at| Instant::now() >= *at).map(|_| Ok(self.outcome))
        }

        fn wait(self: Box<Self>) -> Result<Outcome, VerdictError> {
            self.wait_timeout(Duration::from_secs(1))
        }

        fn wait_timeout(self: Box<Self>, timeout: Duration) -> Result<Outcome, VerdictError> {
            match self.ready_at {
                Some(at) if at <= Instant::now() + timeout => {
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    Ok(self.outcome)
                }
                _ => {
                    std::thread::sleep(timeout);
                    Err(VerdictError::TimedOut)
                }
            }
        }
    }

    impl Admitter for Scripted {
        fn submit(
            &self,
            task: offloadnn_core::task::Task,
            _options: Vec<offloadnn_core::instance::PathOption>,
            _deadline: Option<Duration>,
        ) -> Result<PendingVerdict, SubmitError> {
            self.submitted.lock().unwrap().push(task.id.0);
            let now = Instant::now();
            let (ready_at, outcome) = match (self.script)(task.id.0) {
                Script::Admit => (Some(now), Outcome::Admitted { admission: 0.5, rbs: 1.0, shard: 0 }),
                Script::Reject => (Some(now), Outcome::Rejected { shard: 0 }),
                Script::RefuseSubmit => return Err(SubmitError::Draining),
                Script::NeverResolve => (None, Outcome::Rejected { shard: 0 }),
                Script::Late(by) => (Some(now + by), Outcome::Rejected { shard: 0 }),
            };
            Ok(PendingVerdict::new(task.id, Box::new(ScriptedPending { ready_at, outcome })))
        }

        fn depart(&self, task: TaskId) {
            self.departed.lock().unwrap().push(task.0);
        }

        fn metrics(&self) -> Option<offloadnn_serve::MetricsSnapshot> {
            None
        }

        fn begin_drain(&self) {}

        fn tier(&self) -> &'static str {
            "scripted"
        }
    }

    fn scripted(script: fn(u32) -> Script) -> Scripted {
        Scripted { script, submitted: Mutex::new(Vec::new()), departed: Mutex::new(Vec::new()) }
    }

    fn test_workload() -> Workload {
        Workload {
            paced_rate_hz: 2_000.0,
            mean_hold: 5.0,
            slo_limit_ms: 10.0,
            sat_outstanding: 4,
            ..WORKLOADS[0]
        }
    }

    fn run_paced(fake: &Scripted, blocking_waiters: usize, traced: bool) -> (PhaseReport, Option<Trace>) {
        let scenario = small_scenario(5);
        let w = Workload { blocking_waiters, ..test_workload() };
        let admitters: [&dyn Admitter; 1] = [fake];
        let trace = traced.then(|| Trace::starting_at(Instant::now()));
        let mut driver = Driver::new(&admitters, &scenario.instance, &w, 7, trace);
        driver.grace = Duration::from_millis(60);
        let report = driver.run_phase(PhaseKind::Paced, 0.3);
        driver.release_all();
        assert_eq!(driver.round_tally, report.tally);
        (report, driver.into_parts().1)
    }

    #[test]
    fn every_admitted_task_departs_once_and_nothing_else_does() {
        fn script(seq: u32) -> Script {
            match seq % 4 {
                0 => Script::Admit,
                1 => Script::Reject,
                2 => Script::NeverResolve,
                _ => Script::RefuseSubmit,
            }
        }
        let fake = scripted(script);
        let (report, _) = run_paced(&fake, 0, false);
        let mut departed = fake.departed.lock().unwrap().clone();
        departed.sort_unstable();
        let mut admitted: Vec<u32> =
            fake.submitted.lock().unwrap().iter().copied().filter(|s| s % 4 == 0).collect();
        admitted.sort_unstable();
        assert!(!admitted.is_empty());
        assert_eq!(
            departed, admitted,
            "admitted tasks depart exactly once; unresolved and refused ones never"
        );
        assert_eq!(report.tally.admitted, admitted.len() as u64);
    }

    #[test]
    fn refused_timed_out_and_late_requests_all_miss_the_slo() {
        fn script(seq: u32) -> Script {
            match seq % 5 {
                0 => Script::Admit,
                1 => Script::Reject,
                2 => Script::RefuseSubmit,
                3 => Script::NeverResolve,
                _ => Script::Late(Duration::from_millis(25)),
            }
        }
        let fake = scripted(script);
        let (r, _) = run_paced(&fake, 0, false);
        let t = r.tally;
        assert!(t.attempted >= 300, "0.3 s at 2 kHz: {t:?}");
        assert_eq!(t.attempted, t.admitted + t.rejected + t.refused + t.timed_out);
        assert!(t.refused > 0 && t.timed_out > 0);
        // Late ones are answered (Rejected) but past the 10 ms limit.
        let late = t.attempted.div_ceil(5).min(t.rejected);
        assert!(late > 0);
        let slo_hits: u64 = r.slices.iter().map(|s| s.slo_hits).sum();
        assert!(slo_hits <= t.admitted + t.rejected - late + 1, "late verdicts miss: {slo_hits} hits, {t:?}");
        assert!(slo_hits < t.attempted);
        assert_eq!(r.slices.len(), 3, "0.3 s in 100 ms slices");
        assert_eq!(r.slices.iter().map(|s| s.attempted).sum::<u64>(), t.attempted);
        // A refused request raises the failure count; a late one does not.
        assert_eq!(t.failed(), t.refused + t.timed_out);
        assert_eq!(r.latencies_sorted().len() as u64, t.verdicts());
        assert_eq!(r.gen_lags_ms.len() as u64, t.attempted);
    }

    #[test]
    fn blocking_waiters_see_the_same_classes() {
        fn script(seq: u32) -> Script {
            match seq % 3 {
                0 => Script::Admit,
                1 => Script::Reject,
                _ => Script::RefuseSubmit,
            }
        }
        let fake = scripted(script);
        let (r, _) = run_paced(&fake, 2, false);
        let t = r.tally;
        assert_eq!(t.attempted, t.admitted + t.rejected + t.refused, "{t:?}");
        assert_eq!(fake.departed.lock().unwrap().len() as u64, t.admitted);
    }

    #[test]
    fn saturation_keeps_the_window_full_and_counts_verdicts() {
        let fake = scripted(|_| Script::Reject);
        let scenario = small_scenario(5);
        let admitters: [&dyn Admitter; 1] = [&fake];
        let mut driver = Driver::new(&admitters, &scenario.instance, &test_workload(), 7, None);
        let r = driver.run_phase(PhaseKind::Saturation, 0.25);
        let per_slice: Vec<u64> = r.slices.iter().map(|s| s.verdicts_seen).collect();
        assert_eq!(per_slice.len(), 5);
        assert!(per_slice.iter().all(|&n| n > 20), "a free-running closed loop: {per_slice:?}");
        assert_eq!(r.tally.attempted, r.tally.rejected);
        assert!(per_slice.iter().sum::<u64>() <= r.tally.rejected, "the drain counts for no slice");
    }

    #[test]
    fn traced_round_records_one_root_and_its_children_per_request() {
        let fake = scripted(|seq| if seq % 2 == 0 { Script::Admit } else { Script::Reject });
        let (r, trace) = run_paced(&fake, 0, true);
        let spans = trace.expect("traced").spans;
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(count("driver.request"), r.tally.attempted);
        assert_eq!(count("serve.submit_call"), r.tally.attempted);
        assert_eq!(count("driver.wait"), r.tally.attempted);
        assert_eq!(count("serve.depart_call"), r.tally.admitted);
        for s in spans.iter().filter(|s| s.name != "driver.request") {
            let parent = &spans[s.parent as usize];
            assert_eq!(parent.name, "driver.request");
            assert_eq!(parent.request_id, s.request_id, "spans of one request share its id");
        }
    }
}
