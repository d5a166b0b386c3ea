//! The served path: the service on a loopback port, driven closed-loop over
//! one connection or open-loop on a seeded arrival schedule.

use crate::stats::SplitMix64;
use lcmsr_core::engine::LcmsrEngine;
use lcmsr_service::api::QueryResponse;
use lcmsr_service::{serve, HttpClient, ServiceConfig, ServiceHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Starts the service with its default configuration on a free loopback
/// port; returns the handle and the start time in seconds.
pub fn start(engine: &'static LcmsrEngine<'static>) -> (ServiceHandle, f64) {
    let t = Instant::now();
    let handle = serve(engine, ServiceConfig::default()).expect("bind a loopback port");
    (handle, t.elapsed().as_secs_f64())
}

/// One request/response exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the request body.
    pub request: usize,
    /// How late the request left after its due time, ms (0 closed-loop).
    pub late_ms: f64,
    /// Due time to last response byte, ms (send to last byte closed-loop).
    pub latency_ms: f64,
    /// Send to last response byte, ms.
    pub client_ms: f64,
    /// HTTP status; 0 when the connection failed.
    pub status: u16,
    /// The decoded response of a `200`.
    pub response: Option<QueryResponse>,
}

impl Exchange {
    /// Whether the exchange produced a full answer.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.response.as_ref().is_some_and(|r| !r.stats.partial)
    }
}

fn post(
    client: &mut Option<HttpClient>,
    addr: SocketAddr,
    body: &str,
) -> (u16, Option<QueryResponse>) {
    if client.is_none() {
        *client = HttpClient::connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return (0, None);
    };
    match c.post("/query", body) {
        Ok((200, text)) => (200, QueryResponse::from_body(&text).ok()),
        Ok((status, _)) => (status, None),
        Err(_) => {
            *client = None;
            (0, None)
        }
    }
}

/// Sends `bodies[i]` for each `i` of `order`, one after the other, over one
/// keep-alive connection.
pub fn closed_sample(addr: SocketAddr, bodies: &[String], order: &[usize]) -> Vec<Exchange> {
    let mut client = None;
    order
        .iter()
        .map(|&i| {
            let t = Instant::now();
            let (status, response) = post(&mut client, addr, &bodies[i]);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            Exchange {
                request: i,
                late_ms: 0.0,
                latency_ms: ms,
                client_ms: ms,
                status,
                response,
            }
        })
        .collect()
}

/// One step of the open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Length, seconds.
    pub seconds: f64,
}

/// Arrivals over the ladder: `(due offset in s, phase)` per request, a pure
/// function of `seed`.  Each phase gets exactly `rate × seconds` arrivals at
/// uniformly random instants (Poisson arrivals given their count), so every
/// seed offers the same load.
pub fn schedule(phases: &[Phase], seed: u64) -> Vec<(f64, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0xA221_7A15);
    let mut due = Vec::new();
    let mut phase_start = 0.0;
    for (p, phase) in phases.iter().enumerate() {
        let count = (phase.rate * phase.seconds).round() as usize;
        let mut at: Vec<f64> = (0..count)
            .map(|_| phase_start + rng.next_f64() * phase.seconds)
            .collect();
        at.sort_by(f64::total_cmp);
        due.extend(at.into_iter().map(|t| (t, p)));
        phase_start += phase.seconds;
    }
    due
}

/// Sends `bodies[i]` at `due[i]` seconds after the start over `connections`
/// keep-alive connections: each takes the next due request when it is free,
/// so a stall delays later requests and their latency, timed from the due
/// time, shows it.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    due: &[f64],
    connections: usize,
) -> Vec<Exchange> {
    let next = AtomicUsize::new(0);
    let origin = Instant::now() + Duration::from_millis(20);
    let mut all: Vec<Exchange> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::connect(addr).ok();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= bodies.len() {
                            break;
                        }
                        let due_at = origin + Duration::from_secs_f64(due[i]);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let (status, response) = post(&mut client, addr, &bodies[i]);
                        let done = Instant::now();
                        mine.push(Exchange {
                            request: i,
                            late_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                            latency_ms: done.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                            client_ms: (done - sent).as_secs_f64() * 1e3,
                            status,
                            response,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread"))
            .collect()
    });
    all.sort_by_key(|e| e.request);
    all
}

/// Scrapes `/metrics` into `name → value` (unlabelled samples only).
pub fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let Ok((200, text)) = HttpClient::connect(addr).and_then(|mut c| c.get("/metrics")) else {
        return BTreeMap::new();
    };
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_per_seed() {
        let ladder = [
            Phase {
                rate: 50.0,
                seconds: 2.0,
            },
            Phase {
                rate: 200.0,
                seconds: 1.0,
            },
        ];
        let a = schedule(&ladder, 11);
        assert_eq!(a, schedule(&ladder, 11));
        assert_ne!(a, schedule(&ladder, 12));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "due times ascend");
        assert_eq!(a.iter().filter(|d| d.1 == 0).count(), 100);
        assert_eq!(a.iter().filter(|d| d.1 == 1).count(), 200);
        assert!(a.iter().all(|&(t, p)| if p == 0 {
            t < 2.0
        } else {
            (2.0..3.0).contains(&t)
        }));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        use lcmsr_datagen::prelude::{Dataset, DatasetConfig};
        let dataset = Dataset::build(DatasetConfig::tiny(42));
        let query = lcmsr_bench::default_workload(&dataset, 7).remove(0);
        let spec = crate::workload::Spec {
            label: "q".into(),
            query,
            algorithm: lcmsr_core::engine::Algorithm::Greedy(Default::default()),
            k: None,
            deadline: None,
        };
        let body = spec.wire(false).to_body();
        let engine = lcmsr_service::leak_engine(dataset.network, dataset.collection);
        let (handle, _) = start(engine);
        let bodies = vec![body; 6];
        // Six requests all due at once over one connection: each waits for
        // the ones before it, and that wait is part of its latency.
        let exchanges = open_loop(handle.addr(), &bodies, &[0.0; 6], 1);
        handle.shutdown();
        assert_eq!(exchanges.len(), 6);
        assert!(exchanges.iter().all(|e| e.status == 200));
        let mut waited = 0.0;
        for e in &exchanges {
            assert!(
                (e.latency_ms - (e.late_ms + e.client_ms)).abs() < 0.05,
                "{e:?}"
            );
            assert!(
                e.late_ms + 0.05 >= waited,
                "request {} left before the earlier ones returned",
                e.request
            );
            waited += e.client_ms;
        }
        assert!(exchanges[5].late_ms > 0.0);
    }
}
