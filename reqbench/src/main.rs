//! Request-path benchmark for the `jsk-serve` front door.
//!
//! One process runs the server (`Server::new(ServerConfig::new(4, 2))`
//! behind `TcpServer::bind("127.0.0.1:0")`) and 2 closed-loop client
//! threads that talk to it over loopback TCP; each client sends its next
//! request only after the previous reply arrives.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload corpus-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with spans and prints the per-layer table. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `reqbench/README.md` for the metric definitions.

mod inproc;
mod oracle;
mod stats;
mod trace;
mod wire;
mod workload;

use oracle::Tally;
use stats::{percentile, process_cpu_s, status_kb, MIN_BEYOND};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{Client, ClientRun, Conn, Rig, Window, CLIENTS, SHARDS, WORKERS};
use workload::{Catalog, Generator, Workload};

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed warm-up before each measured window.
const WARMUP: Duration = Duration::from_millis(1000);
/// Idle-server transport probes in the traced run.
const CONNECT_PROBES: usize = 64;
const RTT_PROBES: usize = 512;
/// Spans written out per traced run (the per-layer table covers all).
const SPANS_WRITTEN: usize = 20_000;

/// End-to-end metrics printed but left out of the result line and of
/// `BENCHMARK.json`. On a shared 2-vCPU host the p99's run-to-run spread
/// (up to 35 % of its median) exceeds any bound the benchmark may set.
/// `cpu_us_per_req` on `connect-churn` moved by 32 % between two sets of
/// runs while the hypervisor stole CPU, because idle pool workers spin
/// longer while the worker they wait on is descheduled; the traced run
/// reports it as `trace.wire_cpu_us_per_req` instead. `failed_frac` is 0
/// on a healthy run, so a bound relative to it means nothing (the result
/// line's `attempted` and `failed` carry it instead).
const UNGATED: &[&str] = &["latency_p99_ms", "cpu_us_per_req", "failed_frac"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: reqbench --workload <corpus-batch|tiny-flush|connect-churn> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let name = take("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let num = |v: String, what: &str| v.parse::<u64>().map_err(|_| format!("bad {what} {v:?}"));
    let seed = num(take("--seed")?, "--seed")?;
    let seconds = num(take("--seconds")?, "--seconds")?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cat = Catalog::new(args.workload);
    println!(
        "reqbench {} seed={} seconds={} trace={}: {CLIENTS} closed-loop clients, \
         {SHARDS} shards, {WORKERS} pool workers, available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let result = if args.trace {
        traced(&args, &cat)
    } else {
        end_to_end(&args, &cat)
    };
    match result {
        Ok(outcome) => {
            if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
                eprintln!("reqbench: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs `run` on one thread per input, `meanwhile` on the calling
/// thread, and returns the threads' results in input order.
fn on_clients<I: Send, T: Send, R>(
    inputs: Vec<I>,
    run: impl Fn(I) -> T + Sync,
    meanwhile: impl FnOnce() -> R,
) -> (Vec<T>, R) {
    std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|i| s.spawn(move || run(i)))
            .collect();
        let r = meanwhile();
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (out, r)
    })
}

/// What the wire clients of one window measured, merged.
struct WireRun {
    tally: Tally,
    tracers: Vec<Tracer>,
    /// Per site: from its `queued` ack to the client writing `flush`.
    queue_waits: Vec<Duration>,
    /// The start of the window's measured part.
    since: Instant,
    /// Process CPU seconds from the window's start until every client
    /// had stopped.
    cpu_s: f64,
}

impl WireRun {
    fn rps(&self) -> f64 {
        self.tally.rps(self.since)
    }

    fn cpu_us_per_req(&self) -> f64 {
        self.cpu_s * 1e6 / self.tally.latencies.len().max(1) as f64
    }
}

/// Runs the closed-loop wire clients over `rig` for one window.
fn drive_wire(
    cat: &Catalog,
    seed: u64,
    rig: &mut Rig,
    window: Window,
    epoch: Option<Instant>,
) -> Result<WireRun, String> {
    let mut conns = std::mem::take(&mut rig.conns);
    if !cat.workload.persistent() {
        for c in conns.drain(..) {
            c.bye().map_err(io_err("closing a set-up connection"))?;
        }
    }
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client {
            cat,
            gen: Generator::new(cat, seed, c as u64),
            addr: rig.addr,
            conn: conns.pop(),
            tracer: epoch.map(|e| Tracer::new(e, c as u64, true)),
            out: ClientRun::default(),
        })
        .collect();
    let (_, cpu0) = on_clients(
        clients.iter_mut().collect(),
        |client| client.run(window),
        || {
            std::thread::sleep(window.warm_end.saturating_duration_since(Instant::now()));
            process_cpu_s()
        },
    );
    let mut out = WireRun {
        tally: Tally::default(),
        tracers: Vec::new(),
        queue_waits: Vec::new(),
        since: window.warm_end,
        cpu_s: process_cpu_s()? - cpu0?,
    };
    let mut connect_errors = 0;
    for c in clients {
        out.tally.absorb(c.out.tally);
        out.tracers.extend(c.tracer);
        out.queue_waits.extend(c.out.queue_waits);
        connect_errors += c.out.connect_errors;
    }
    if let Some(first) = &out.tally.first_wrong {
        eprintln!("reqbench: verdict failed its check: {first}");
    }
    if connect_errors > 0 {
        eprintln!("reqbench: {connect_errors} connect errors (counted as failed requests)");
    }
    Ok(out)
}

fn window_from(now: Instant, warm: Duration, measure: Duration) -> Window {
    Window {
        warm_end: now + warm,
        end: now + warm + measure,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean_us(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    us(ds.iter().sum::<Duration>()) / ds.len() as f64
}

/// The untraced run: every end-to-end metric.
fn end_to_end(args: &Args, cat: &Catalog) -> Result<Outcome, String> {
    let (mut rig, setups) = wire::setup(SETUPS).map_err(io_err("server set-up"))?;
    let setup_s = stats::median(&setups);
    let window = window_from(Instant::now(), WARMUP, Duration::from_secs(args.seconds));
    let run = drive_wire(cat, args.seed, &mut rig, window, None)?;
    let hwm_kb = status_kb("VmHWM")?;
    rig.stop();
    let m = &run.tally;

    let mut correct = m.wrong == 0 && m.attempted > 0;
    match oracle::verify(cat, &m.samples) {
        Ok(n) => println!(
            "oracle: {n} sampled batches byte-identical to direct pool submission; \
             traced site job details match"
        ),
        Err(e) => {
            eprintln!("reqbench: oracle: {e}");
            correct = false;
        }
    }
    let (Some(p50), Some(p99)) = (
        percentile(&m.latencies, 0.5),
        percentile(&m.latencies, 0.99),
    ) else {
        return Err("no request was answered".to_owned());
    };
    if p99.beyond < MIN_BEYOND {
        eprintln!(
            "reqbench: too few answers ({}) for a p99 with {MIN_BEYOND} samples beyond it; \
             failing the run",
            p99.samples
        );
        correct = false;
    }
    let metric = |name, value, unit| Metric { name, value, unit };
    let lines = [
        (
            metric("rps", run.rps(), "1/s"),
            format!("{} verdicts", m.latencies.len()),
        ),
        (
            metric("latency_p50_ms", ms(p50.value), "ms"),
            format!("n={}, {} beyond", p50.samples, p50.beyond),
        ),
        (
            metric("latency_p99_ms", ms(p99.value), "ms"),
            format!("n={}, {} beyond", p99.samples, p99.beyond),
        ),
        (
            metric("cpu_us_per_req", run.cpu_us_per_req(), "us"),
            format!("{:.3} s user+sys of every thread", run.cpu_s),
        ),
        (
            metric("peak_rss_mb", hwm_kb as f64 / 1024.0, "MiB"),
            "VmHWM at the end of the window".to_owned(),
        ),
        (
            metric("setup_s", setup_s, "s"),
            format!(
                "median of {SETUPS} set-ups, {:.4}..{:.4}",
                min(&setups),
                max(&setups)
            ),
        ),
        (
            metric(
                "failed_frac",
                m.failed as f64 / m.attempted.max(1) as f64,
                "",
            ),
            format!("{} of {} attempted", m.failed, m.attempted),
        ),
    ];
    for (x, note) in &lines {
        let gate = if UNGATED.contains(&x.name) {
            ", not gated"
        } else {
            ""
        };
        println!(
            "{:<16} {:>12.4} {:<4} ({note}{gate})",
            x.name, x.value, x.unit
        );
    }
    Ok(Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics: lines
            .into_iter()
            .map(|(x, _)| x)
            .filter(|x| !UNGATED.contains(&x.name))
            .collect(),
    })
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Runs the in-process clients for one window, with spans on or off.
fn drive_inproc(
    shared: &inproc::Shared<'_>,
    seed: u64,
    window: Window,
    epoch: Instant,
    spans: bool,
) -> (inproc::InprocRun, Vec<Tracer>) {
    let inputs: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let gen = Generator::new(shared.cat, seed, c as u64);
            (gen, Tracer::new(epoch, (CLIENTS + c) as u64, spans))
        })
        .collect();
    let (runs, ()) = on_clients(
        inputs,
        |(gen, t)| inproc::run_client(shared, gen, window, t),
        || (),
    );
    let mut run = inproc::InprocRun::default();
    let mut tracers = Vec::new();
    for (r, t) in runs {
        run.absorb(r);
        tracers.push(t);
    }
    (run, tracers)
}

/// Every per-layer metric: its name, unit, and the end-to-end metric and
/// workload it should move.
const LAYER_METRICS: &[(&str, &str, &str)] = &[
    (
        "transport.connect_us",
        "us",
        "setup_s everywhere; latency_p50_ms, rps on connect-churn",
    ),
    ("transport.rtt_us", "us", "latency_p50_ms on tiny-flush"),
    (
        "transport.rss_kb_per_conn",
        "KiB",
        "peak_rss_mb on connect-churn",
    ),
    (
        "transport.cost_us",
        "us",
        "latency_p50_ms on every workload (wire-phase p50 - in-process p50)",
    ),
    (
        "protocol.encode_us",
        "us",
        "cpu_us_per_req on tiny-flush, corpus-batch",
    ),
    (
        "protocol.decode_us",
        "us",
        "cpu_us_per_req on tiny-flush, corpus-batch",
    ),
    (
        "protocol.verdict_encode_us",
        "us",
        "cpu_us_per_req on tiny-flush, corpus-batch",
    ),
    (
        "protocol.bytes_per_site",
        "B",
        "cpu_us_per_req on tiny-flush, corpus-batch",
    ),
    ("job.validate_us", "us", "latency_p50_ms on tiny-flush"),
    ("session.submit_us", "us", "latency_p50_ms on tiny-flush"),
    (
        "session.queue_wait_us",
        "us",
        "latency_p50_ms on corpus-batch",
    ),
    (
        "shard.serve_us",
        "us",
        "latency_p50_ms, cpu_us_per_req on tiny-flush",
    ),
    (
        "shard.self_us",
        "us",
        "latency_p50_ms, cpu_us_per_req on tiny-flush",
    ),
    (
        "shard.site_wait_us",
        "us",
        "rps, latency_p99_ms on corpus-batch",
    ),
    ("shard.util", "ratio", "rps, latency_p99_ms on corpus-batch"),
    (
        "shard.sites_per_flush",
        "count",
        "rps, latency_p99_ms on corpus-batch",
    ),
    ("core.build_us", "us", "latency_p50_ms on tiny-flush"),
    (
        "browser.run_us",
        "us",
        "rps, cpu_us_per_req on corpus-batch; none on tiny-flush",
    ),
    (
        "core.kernel_events",
        "count",
        "rps, cpu_us_per_req on corpus-batch; none on tiny-flush",
    ),
    (
        "browser.ns_per_kernel_event",
        "ns",
        "rps, cpu_us_per_req on corpus-batch; none on tiny-flush",
    ),
    ("analyze.hb_us", "us", "rps, cpu_us_per_req on corpus-batch"),
    (
        "analyze.trace_records",
        "count",
        "rps, cpu_us_per_req on corpus-batch",
    ),
    ("observe.label_us", "us", "cpu_us_per_req on corpus-batch"),
    ("server.merge_us", "us", "cpu_us_per_req on corpus-batch"),
    ("trace.traced_rps", "1/s", "(in-process path, spans on)"),
    (
        "trace.untraced_rps",
        "1/s",
        "(in-process path, spans off: the tracing overhead's base)",
    ),
    (
        "trace.wire_rps",
        "1/s",
        "(rps of this run's wire phase, client spans only)",
    ),
    (
        "trace.wire_cpu_us_per_req",
        "us",
        "(cpu_us_per_req of this run's wire phase; not gated end to end)",
    ),
];

/// The traced run: the wire workload with client-side spans, idle
/// transport probes, then the in-process path with a span per layer.
fn traced(args: &Args, cat: &Catalog) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let split = |share: f64| {
        let now = Instant::now();
        window_from(
            now,
            WARMUP / 4,
            Duration::from_secs_f64(args.seconds as f64 * share),
        )
    };

    // Phase A: the wire workload, spans on the client side only.
    let (mut rig, _) = wire::setup(1).map_err(io_err("server set-up"))?;
    let conns0 = rig.server.wire_stats().connections;
    let rss0 = status_kb("VmRSS")?;
    let mut wire_a = drive_wire(cat, args.seed, &mut rig, split(0.4), Some(epoch))?;
    let mut tracers = std::mem::take(&mut wire_a.tracers);

    let mut probe = Tracer::new(epoch, 2 * CLIENTS as u64, true);
    if cat.workload.persistent() {
        wire::probe_connect(rig.addr, CONNECT_PROBES, &mut probe)
            .map_err(io_err("connect probe"))?;
    }
    let mut conn = Conn::handshake(rig.addr).map_err(io_err("rtt probe connect"))?;
    wire::probe_rtt(&mut conn, RTT_PROBES, &mut probe).map_err(io_err("rtt probe"))?;
    conn.bye().map_err(io_err("rtt probe bye"))?;
    let rss1 = status_kb("VmRSS")?;
    let conns1 = rig.server.wire_stats().connections;
    rig.stop();
    tracers.push(probe);

    // Phase B: the in-process path, first with spans off (the tracing
    // overhead's baseline), then with a span around every layer call.
    let shared = inproc::Shared {
        cat,
        server: jsk_serve::Server::new(jsk_serve::ServerConfig::new(SHARDS, WORKERS)),
        cumulative: Mutex::default(),
    };
    let window_off = split(0.2);
    let (mut off, _) = drive_inproc(&shared, args.seed, window_off, epoch, false);
    let window_b = split(0.4);
    let (mut b, traced_tracers) = drive_inproc(&shared, args.seed, window_b, epoch, true);
    tracers.extend(traced_tracers);

    // The oracle covers every phase.
    let mut samples = std::mem::take(&mut wire_a.tally.samples);
    samples.append(&mut off.tally.samples);
    samples.append(&mut b.tally.samples);
    let tallies = [&wire_a.tally, &off.tally, &b.tally];
    let mut correct = tallies.iter().all(|t| t.wrong == 0) && b.sites > 0;
    match oracle::verify(cat, &samples) {
        Ok(n) => println!(
            "oracle: {n} sampled batches (wire and in-process) byte-identical to direct \
             pool submission; traced site job details match"
        ),
        Err(e) => {
            eprintln!("reqbench: oracle: {e}");
            correct = false;
        }
    }

    let spans: Vec<trace::Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    let table = trace::layers(&spans);
    let layer = |name: &str| table.get(name).copied().unwrap_or_default();
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let p50 = |v: &[Duration]| percentile(v, 0.5).map_or(Duration::ZERO, |p| p.value);
    let serve = layer("shard.serve");
    let r = &b;
    let value = |name: &str| -> f64 {
        match name {
            "transport.connect_us" => layer("transport.connect").mean_us(),
            "transport.rtt_us" => layer("transport.rtt").mean_us(),
            "transport.rss_kb_per_conn" => {
                (rss1 as f64 - rss0 as f64) / conns1.saturating_sub(conns0).max(1) as f64
            }
            "transport.cost_us" => us(p50(&wire_a.tally.latencies)) - us(p50(&off.tally.latencies)),
            "protocol.encode_us" => layer("protocol.encode").mean_us(),
            "protocol.decode_us" => layer("protocol.decode").mean_us(),
            "protocol.verdict_encode_us" => layer("protocol.verdict_encode").mean_us(),
            "protocol.bytes_per_site" => per(r.bytes, r.sites),
            "job.validate_us" => layer("job.validate").mean_us(),
            "session.submit_us" => layer("session.submit").mean_us(),
            "session.queue_wait_us" => mean_us(&wire_a.queue_waits),
            "shard.serve_us" => serve.mean_us(),
            "shard.self_us" => serve.self_mean_us(),
            "shard.site_wait_us" => mean_us(&r.site_waits),
            "shard.util" => {
                r.site_busy.as_secs_f64() / (r.serve_wall.as_secs_f64() * WORKERS as f64)
            }
            "shard.sites_per_flush" => per(r.sites, r.flushes),
            "core.build_us" => layer("core.build").mean_us(),
            "browser.run_us" => layer("browser.run").mean_us(),
            "core.kernel_events" => per(r.kernel_events, r.sites),
            "browser.ns_per_kernel_event" => {
                per(layer("browser.run").total_ns, r.kernel_events_floored)
            }
            "analyze.hb_us" => layer("analyze.hb").mean_us(),
            "analyze.trace_records" => per(r.trace_records, r.sites),
            "observe.label_us" => layer("observe.label").mean_us(),
            "server.merge_us" => layer("server.merge").mean_us(),
            "trace.traced_rps" => b.tally.rps(window_b.warm_end),
            "trace.untraced_rps" => off.tally.rps(window_off.warm_end),
            "trace.wire_rps" => wire_a.rps(),
            "trace.wire_cpu_us_per_req" => wire_a.cpu_us_per_req(),
            other => unreachable!("no definition for {other}"),
        }
    };

    println!("\nspans (busy intervals; self = duration minus the union of child spans):");
    println!(
        "{:<26} {:>9} {:>12} {:>12}",
        "span", "count", "mean_us", "self_us"
    );
    for (name, l) in &table {
        println!(
            "{name:<26} {:>9} {:>12.3} {:>12.3}",
            l.count,
            l.mean_us(),
            l.self_mean_us()
        );
    }
    println!("\nper-layer metrics:");
    let metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, moves)| {
            let v = value(name);
            println!("{name:<28} {v:>12.3} {unit:<5} -> {moves}");
            Metric {
                name,
                value: v,
                unit,
            }
        })
        .collect();

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", args.workload.name()));
    trace::write_json(&out, &table, &spans, SPANS_WRITTEN).map_err(io_err("writing spans"))?;
    println!("spans written to {}", out.display());

    Ok(Outcome {
        correct,
        attempted: tallies.iter().map(|t| t.attempted).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
        metrics,
    })
}
