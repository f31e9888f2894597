//! Open-loop load generators and the direct-call isolation pass.
//!
//! Every generator sends on a fixed schedule (send `i` due at
//! `start + i / rate`), whatever the system's speed. Each time the
//! sender wakes it sends every frame that is due, then sleeps until the
//! next one — it never spins, so it does not take a core from the
//! server. Latency is timed from the due time; lateness (actual send
//! minus due) is reported separately. Answers are stored and checked
//! after the run, so checking costs no CPU while timing.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use reach_graph::VertexId;
use reach_serve::QueryService;
use reach_served::wire::{self, opcode, BatchRequest, FrameReader, Polled};

use crate::stats::{backlog_growing, latency_from_due, lateness, median, Schedule};
use crate::trace::{Span, Trace};

pub type Pairs = Vec<(VertexId, VertexId)>;

/// A response as the receiver saw it: request id, arrival, answers and
/// generation, or the failure's cause.
type Received = (usize, Instant, Result<(Vec<bool>, u64), String>);

/// Latency recorded for a failed or refused frame: it misses any limit.
pub const FAILED_US: f64 = 1e9;
/// How long the receiver waits for stragglers after the last send.
const DRAIN_WAIT: Duration = Duration::from_secs(10);
/// Backlog sampling period.
const BACKLOG_EVERY: Duration = Duration::from_millis(5);

/// What one open-loop pass observed.
pub struct Pass {
    pub sent: usize,
    /// Per frame, µs from due time to answer ([`FAILED_US`] if failed).
    pub latency_us: Vec<f64>,
    /// Per frame, µs the send ran behind its due time.
    pub late_us: Vec<f64>,
    /// Per frame: the answers and the generation that gave them.
    pub answers: Vec<Option<(Vec<bool>, u64)>>,
    /// Failed frames by cause (wire error code name, service error,
    /// timeout).
    pub errors: BTreeMap<String, u64>,
    /// Backlog (sent minus answered) sampled every 5 ms.
    pub backlog: Vec<u64>,
}

impl Pass {
    fn new(total: usize) -> Pass {
        Pass {
            sent: total,
            latency_us: vec![FAILED_US; total],
            late_us: vec![0.0; total],
            answers: vec![None; total],
            errors: BTreeMap::new(),
            backlog: Vec::new(),
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }

    pub fn backlog_growing(&self) -> bool {
        backlog_growing(&self.backlog, 8.0)
    }

    fn fail(&mut self, cause: impl Into<String>) {
        *self.errors.entry(cause.into()).or_default() += 1;
    }
}

/// Frame `i` of a pass is `pool[i % pool.len()]`.
pub fn frames_needed(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

/// Drives one loopback connection: a sender thread writing QUERY frames
/// on the schedule and a receiver thread reading responses through
/// [`FrameReader`]. The sender keeps at most `window` frames in flight
/// (the server's per-connection quota) and holds due frames back while
/// the window is full; they are still timed from their due time. With
/// tracing on, every frame gets a `wire.frame` span (due → answer
/// decoded) with children `gen.wait` (due → write), `gen.write` and
/// `gen.decode`.
pub fn wire_pass(
    addr: SocketAddr,
    pool: &[Pairs],
    rate: f64,
    seconds: f64,
    window: usize,
    trace: &Trace,
) -> Pass {
    let total = frames_needed(rate, seconds);
    let payloads: Vec<Vec<u8>> = pool
        .iter()
        .map(|pairs| {
            wire::encode_batch(&BatchRequest {
                deadline_ms: 0,
                priority: wire::priority::NORMAL,
                pairs: pairs.clone(),
            })
        })
        .collect();
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader_stream = stream.try_clone().expect("clone stream");
    reader_stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let answered = AtomicUsize::new(0);
    let sent_count = AtomicUsize::new(0);
    let base = trace.reserve(total as u64 * 4);
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(5),
        rate,
    };

    let mut pass = Pass::new(total);
    let sender = std::thread::current();
    std::thread::scope(|scope| {
        let receiver = {
            let (answered, sent_count) = (&answered, &sent_count);
            scope.spawn(move || {
                let mut reader = FrameReader::new(wire::DEFAULT_MAX_FRAME);
                let mut got: Vec<Received> = Vec::with_capacity(total);
                let mut spans: Vec<Span> = Vec::new();
                let mut last_progress = Instant::now();
                while got.len() < total {
                    match reader.poll(&mut reader_stream) {
                        Ok(Polled::Frame(f)) => {
                            let polled = Instant::now();
                            let id = f.request_id as usize;
                            let out = match f.opcode {
                                opcode::QUERY_OK => wire::decode_query_ok(&f.payload)
                                    .map(|(generation, answers)| (answers, generation))
                                    .map_err(|e| format!("bad QUERY_OK: {}", e.0)),
                                opcode::ERROR => Err(match wire::decode_error(&f.payload) {
                                    Ok((_, Some(code), _)) => format!("{code:?}"),
                                    Ok((raw, None, _)) => format!("code_{raw}"),
                                    Err(e) => format!("bad ERROR: {}", e.0),
                                }),
                                other => Err(format!("opcode_{other:#x}")),
                            };
                            let done = Instant::now();
                            if trace.on() && id < total {
                                let fid = base + id as u64 * 4;
                                spans.push(trace.span(
                                    fid + 3,
                                    "gen.decode",
                                    polled,
                                    done,
                                    Some(fid),
                                    id as u64,
                                ));
                                spans.push(trace.span(
                                    fid,
                                    "wire.frame",
                                    sched.due(id),
                                    done,
                                    None,
                                    id as u64,
                                ));
                            }
                            got.push((id, done, out));
                            answered.fetch_add(1, Ordering::Release);
                            sender.unpark();
                            last_progress = done;
                        }
                        Ok(Polled::Pending) => {
                            let sender_done = sent_count.load(Ordering::Acquire) == total;
                            if sender_done && last_progress.elapsed() > DRAIN_WAIT {
                                break;
                            }
                        }
                        Err(e) => panic!("wire read failed: {e:?}"),
                    }
                }
                trace.extend(spans);
                got
            })
        };

        // Sender: runs on this thread.
        let mut writer = stream;
        let mut buf: Vec<u8> = Vec::new();
        let mut spans: Vec<Span> = Vec::new();
        let mut i = 0usize;
        let mut next_sample = Instant::now();
        while i < total {
            let now = Instant::now();
            let due = sched.due_count(now).min(total);
            let done = answered.load(Ordering::Acquire);
            if now >= next_sample {
                // Backlog counts frames held back by the window too.
                pass.backlog.push(due.saturating_sub(done) as u64);
                next_sample = now + BACKLOG_EVERY;
            }
            let due = due.min(done + window);
            if due <= i {
                std::thread::park_timeout(
                    sched
                        .due(i)
                        .saturating_duration_since(now)
                        .min(BACKLOG_EVERY),
                );
                continue;
            }
            buf.clear();
            for j in i..due {
                let payload = payloads[j % payloads.len()].clone();
                buf.extend_from_slice(&wire::Frame::new(opcode::QUERY, j as u64, payload).encode());
            }
            writer.write_all(&buf).expect("wire write");
            let written = Instant::now();
            for j in i..due {
                pass.late_us[j] = lateness(sched.due(j), now).as_secs_f64() * 1e6;
                if trace.on() {
                    let fid = base + j as u64 * 4;
                    spans.push(trace.span(
                        fid + 1,
                        "gen.wait",
                        sched.due(j),
                        now,
                        Some(fid),
                        j as u64,
                    ));
                    spans.push(trace.span(fid + 2, "gen.write", now, written, Some(fid), j as u64));
                }
            }
            sent_count.store(due, Ordering::Release);
            i = due;
        }
        trace.extend(spans);

        let got = receiver.join().expect("receiver thread");
        let mut seen = vec![false; total];
        for (id, done, out) in got {
            if id >= total || seen[id] {
                pass.fail("unexpected_request_id");
                continue;
            }
            seen[id] = true;
            match out {
                Ok(ans) => {
                    pass.latency_us[id] = latency_from_due(sched.due(id), done).as_secs_f64() * 1e6;
                    pass.answers[id] = Some(ans);
                }
                Err(cause) => pass.fail(cause),
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count() as u64;
        if missing > 0 {
            *pass.errors.entry("timeout".into()).or_default() += missing;
        }
        // Dropping the writer half closes the connection.
        drop(writer);
    });
    pass
}

/// Drives an in-process [`QueryService`] the same way: a sender thread
/// calling `submit_batch_async` on the schedule and a waiter thread
/// collecting tickets in submission order with `wait_tagged`. With
/// tracing on, every batch gets a `span_name` span (due → answer).
pub fn service_pass(
    svc: &QueryService,
    pool: &[Pairs],
    offset: usize,
    rate: f64,
    seconds: f64,
    trace: &Trace,
    span_name: &'static str,
) -> Pass {
    let total = frames_needed(rate, seconds);
    let answered = AtomicUsize::new(0);
    let base = trace.reserve(total as u64);
    let sched = Schedule {
        start: Instant::now() + Duration::from_millis(5),
        rate,
    };
    let mut pass = Pass::new(total);
    let (tx, rx) = mpsc::channel::<(usize, reach_serve::BatchTicket)>();
    std::thread::scope(|scope| {
        let answered = &answered;
        let waiter = scope.spawn(move || {
            let mut got = Vec::with_capacity(total);
            let mut spans = Vec::new();
            for (id, ticket) in rx {
                let out = ticket.wait_tagged();
                let done = Instant::now();
                if trace.on() {
                    spans.push(trace.span(
                        base + id as u64,
                        span_name,
                        sched.due(id),
                        done,
                        None,
                        id as u64,
                    ));
                }
                got.push((id, done, out));
                answered.fetch_add(1, Ordering::Release);
            }
            trace.extend(spans);
            got
        });

        let mut i = 0usize;
        let mut submitted = 0usize;
        let mut next_sample = Instant::now();
        while i < total {
            let now = Instant::now();
            if now >= next_sample {
                pass.backlog
                    .push(submitted.saturating_sub(answered.load(Ordering::Acquire)) as u64);
                next_sample = now + BACKLOG_EVERY;
            }
            let due = sched.due_count(now).min(total);
            if due <= i {
                std::thread::sleep(
                    sched
                        .due(i)
                        .saturating_duration_since(now)
                        .min(BACKLOG_EVERY),
                );
                continue;
            }
            for j in i..due {
                pass.late_us[j] = lateness(sched.due(j), now).as_secs_f64() * 1e6;
                match svc.submit_batch_async(&pool[(offset + j) % pool.len()], None) {
                    Ok(ticket) => {
                        submitted += 1;
                        tx.send((j, ticket)).expect("waiter alive");
                    }
                    Err(e) => pass.fail(format!("{e:?}")),
                }
            }
            i = due;
        }
        drop(tx);
        for (id, done, out) in waiter.join().expect("waiter thread") {
            match out {
                Ok(ans) => {
                    pass.latency_us[id] = latency_from_due(sched.due(id), done).as_secs_f64() * 1e6;
                    pass.answers[id] = Some(ans);
                }
                Err(e) => pass.fail(format!("{e:?}")),
            }
        }
    });
    pass
}

/// The direct-call isolation pass: one thread answering each frame with
/// `answer` (which returns the entries scanned), paced at `rate` (or
/// back to back when `rate` is `None`). Returns per-frame busy ns and
/// the total entries scanned. With tracing on, every frame gets a
/// `span_name` span.
pub fn direct_pass(
    frames: usize,
    rate: Option<f64>,
    trace: &Trace,
    span_name: &'static str,
    mut answer: impl FnMut(usize) -> usize,
) -> (Vec<f64>, usize) {
    let sched = Schedule {
        start: Instant::now(),
        rate: rate.unwrap_or(f64::INFINITY),
    };
    let base = trace.reserve(frames as u64);
    let mut ns = Vec::with_capacity(frames);
    let mut spans = Vec::new();
    let mut scanned = 0usize;
    for i in 0..frames {
        if rate.is_some() {
            let due = sched.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t0 = Instant::now();
        scanned += answer(i);
        let t1 = Instant::now();
        ns.push((t1 - t0).as_nanos() as f64);
        if trace.on() {
            spans.push(trace.span(base + i as u64, span_name, t0, t1, None, i as u64));
        }
    }
    trace.extend(spans);
    (ns, scanned)
}

/// Runs a direct pass untraced, traced and untraced again. Returns the
/// traced pass and the recorder's overhead: the traced median over the
/// mean of the two untraced medians, minus one (bracketing cancels warm-up
/// and drift).
pub fn traced_with_overhead<T>(
    trace: &Trace,
    mut pass: impl FnMut(&Trace) -> (Vec<f64>, T),
) -> ((Vec<f64>, T), f64) {
    let quiet = Trace::new(false);
    let before = median(&pass(&quiet).0);
    let traced = pass(trace);
    let after = median(&pass(&quiet).0);
    let overhead = overhead_frac(before, median(&traced.0), after);
    (traced, overhead)
}

/// The recorder's overhead from a traced median bracketed by untraced
/// ones: traced over the mean of the two, minus one.
pub fn overhead_frac(before: f64, traced: f64, after: f64) -> f64 {
    traced / ((before + after) / 2.0) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracketing_cancels_linear_drift() {
        // Untraced 100 before, 110 after: a traced 105 in between costs
        // nothing, a traced 126 costs a fifth.
        assert_eq!(overhead_frac(100.0, 105.0, 110.0), 0.0);
        assert!((overhead_frac(100.0, 126.0, 110.0) - 0.2).abs() < 1e-12);
        assert!(overhead_frac(100.0, 95.0, 100.0) < 0.0);
    }
}
