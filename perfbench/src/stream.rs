//! The seeded request stream: a Poisson arrival schedule, a prototype
//! and shape draw per request, and a logical hold per admitted task.
//! Everything the program under test sees is generated here from
//! `--seed`; the stream never looks at a clock.

use crate::workloads::{Shapes, Workload};
use offloadnn_core::instance::{DotInstance, PathOption};
use offloadnn_core::task::{Task, TaskId};
use offloadnn_serve::ShapePool;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How many leading requests `Stream::fnv` covers — a fixed count, so
/// the hash is exact per seed however long a run lasts.
pub const FNV_REQUESTS: usize = 2_000;

/// One generated request, before it is materialized into a `Task`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Position in the stream; also the task id.
    pub seq: u32,
    /// Intended send instant, in seconds of stream time.
    pub at_s: f64,
    pub proto: usize,
    pub priority_factor: f64,
    pub rate_factor: f64,
    /// Logical hold: if admitted, the task departs this many arrivals
    /// after its verdict was observed.
    pub hold: u32,
}

pub struct Stream {
    rng: StdRng,
    pool: Option<ShapePool>,
    protos: usize,
    rate_hz: f64,
    mean_hold: f64,
    clock_s: f64,
    next_seq: u32,
    peeked: Option<Req>,
    fnv: u64,
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

fn fnv_mix(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Stream {
    pub fn new(workload: &Workload, protos: usize, seed: u64) -> Self {
        let pool = match workload.shapes {
            Shapes::Fresh => None,
            Shapes::Zipf { skew, pool, pool_seed } => Some(ShapePool::new(pool, skew, protos, pool_seed)),
        };
        Self {
            rng: StdRng::seed_from_u64(seed),
            pool,
            protos,
            rate_hz: workload.paced_rate_hz,
            mean_hold: workload.mean_hold,
            clock_s: 0.0,
            next_seq: 0,
            peeked: None,
            fnv: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn generate(&mut self) -> Req {
        self.clock_s += exp_sample(&mut self.rng, 1.0 / self.rate_hz);
        let (proto, priority_factor, rate_factor) = match &self.pool {
            Some(pool) => pool.draw(&mut self.rng),
            None => (
                self.rng.random_range(0..self.protos),
                self.rng.random_range(0.6f64..1.4),
                self.rng.random_range(0.8f64..1.2),
            ),
        };
        let hold = exp_sample(&mut self.rng, self.mean_hold).ceil().clamp(1.0, 1e9) as u32;
        let req = Req { seq: self.next_seq, at_s: self.clock_s, proto, priority_factor, rate_factor, hold };
        if (req.seq as usize) < FNV_REQUESTS {
            for word in [
                u64::from(req.seq),
                req.at_s.to_bits(),
                req.proto as u64,
                req.priority_factor.to_bits(),
                req.rate_factor.to_bits(),
                u64::from(req.hold),
            ] {
                fnv_mix(&mut self.fnv, word);
            }
        }
        self.next_seq += 1;
        req
    }

    /// Intended send instant of the next request, without consuming it.
    pub fn peek_at_s(&mut self) -> f64 {
        if self.peeked.is_none() {
            self.peeked = Some(self.generate());
        }
        self.peeked.expect("just filled").at_s
    }

    pub fn next_req(&mut self) -> Req {
        match self.peeked.take() {
            Some(req) => req,
            None => self.generate(),
        }
    }

    /// FNV-1a over the first [`FNV_REQUESTS`] generated requests
    /// (generating whatever part of them the run has not reached yet).
    pub fn fnv(mut self) -> u64 {
        while (self.next_seq as usize) < FNV_REQUESTS {
            self.generate();
        }
        self.fnv
    }
}

/// Turns a generated request into what the admission API takes: a
/// fresh task derived from the prototype (unique id, jittered priority
/// and rate) and the prototype's candidate options.
pub fn materialize(template: &DotInstance, req: &Req) -> (Task, Vec<PathOption>) {
    let mut task = template.tasks[req.proto].clone();
    task.id = TaskId(req.seq);
    task.priority = (task.priority * req.priority_factor).clamp(0.05, 1.0);
    task.request_rate *= req.rate_factor;
    (task, template.options[req.proto].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn first(workload: &Workload, seed: u64, n: usize) -> Vec<Req> {
        let mut s = Stream::new(workload, 5, seed);
        (0..n).map(|_| s.next_req()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in &WORKLOADS {
            let a = first(w, 7, 500);
            let b = first(w, 7, 500);
            assert_eq!(a, b, "{}: schedule, shape draws and holds repeat per seed", w.name);
            let c = first(w, 8, 500);
            assert_ne!(a, c, "{}: another seed gives another stream", w.name);
            assert_eq!(Stream::new(w, 5, 7).fnv(), Stream::new(w, 5, 7).fnv());
            assert_ne!(Stream::new(w, 5, 7).fnv(), Stream::new(w, 5, 8).fnv());
        }
    }

    #[test]
    fn fnv_does_not_depend_on_how_far_the_run_got() {
        let w = &WORKLOADS[0];
        let untouched = Stream::new(w, 5, 7).fnv();
        let mut short = Stream::new(w, 5, 7);
        for _ in 0..10 {
            short.next_req();
        }
        let mut long = Stream::new(w, 5, 7);
        for _ in 0..(FNV_REQUESTS + 500) {
            long.next_req();
        }
        assert_eq!(short.fnv(), untouched);
        assert_eq!(long.fnv(), untouched);
    }

    #[test]
    fn schedule_is_poisson_at_the_paced_rate_and_peek_does_not_consume() {
        let w = &WORKLOADS[0];
        let mut s = Stream::new(w, 5, 3);
        let at = s.peek_at_s();
        assert_eq!(s.peek_at_s(), at);
        let r = s.next_req();
        assert_eq!((r.seq, r.at_s), (0, at));
        let reqs = first(w, 3, 20_000);
        assert!(reqs.windows(2).all(|p| p[0].at_s < p[1].at_s && p[0].seq + 1 == p[1].seq));
        let rate = reqs.len() as f64 / reqs.last().expect("non-empty").at_s;
        assert!((rate / w.paced_rate_hz - 1.0).abs() < 0.03, "rate {rate}");
        let mean_hold = reqs.iter().map(|r| f64::from(r.hold)).sum::<f64>() / reqs.len() as f64;
        assert!((mean_hold / w.mean_hold - 1.0).abs() < 0.05, "mean hold {mean_hold}");
        assert!(reqs.iter().all(|r| r.hold >= 1));
    }

    #[test]
    fn zipf_pool_is_the_workloads_not_the_seeds() {
        let w = &WORKLOADS[1];
        let shapes = |seed| {
            let mut v: Vec<(usize, u64, u64)> = first(w, seed, 4_000)
                .iter()
                .map(|r| (r.proto, r.priority_factor.to_bits(), r.rate_factor.to_bits()))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let (a, b) = (shapes(7), shapes(8));
        assert!(a.len() <= 32);
        assert_eq!(a, b, "both seeds draw from the same 32 shapes");
    }
}
