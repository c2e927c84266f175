//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! See `perfbench/README.md` for what each metric means.

use perfbench::{
    identical, line_rate_gbps, ring_bound_us, run_sample, workload, Point, Sample, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest load-point samples a run takes, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;

/// Whether to take another round of samples: always until there are
/// `MIN_SAMPLES`, then only while a round as long as the last one still
/// ends by `deadline`, so a run lasts about `--seconds`.
fn another_round(samples: usize, last_round: Duration, deadline: Instant) -> bool {
    samples < MIN_SAMPLES || Instant::now() + last_round <= deadline
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("not a positive whole number")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("missing --workload")?;
    Ok(Args {
        workload: workload(&name).ok_or(format!("unknown workload {name:?}"))?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Counts engine runs and the ones that failed: a panic, an error, or a
/// failed check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let r = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("panicked".to_string()))
            .map_err(|e| eprintln!("FAILED {what}: {e}"));
        self.failed += u64::from(r.is_err());
        r.ok()
    }

    /// Records a check on results already counted as runs.
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("FAILED check: {what}");
            self.failed += 1;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The untraced run: model metrics at both operating points, and set-up
/// time and memory from repeated load-point samples.
fn untraced(a: &Args, deadline: Instant, tally: &mut Tally) -> Metrics {
    let (w, seed) = (&a.workload, a.seed);
    let sample = |point| move || run_sample(w, seed, point, false);
    let reference = |point| {
        move || {
            let trace = w.trace(seed);
            w.builder(seed, point, trace)
                .run()
                .map_err(|e| e.to_string())
        }
    };

    // Peak RSS is read after the first run and before any other.
    let first = tally.run("load sample", sample(Point::Load));
    let rss = peak_rss_mb()
        .map_err(|e| eprintln!("FAILED peak RSS: {e}"))
        .ok();
    let cap = tally.run("capacity sample", sample(Point::Capacity));
    if let (Some(own), Some(m)) = (
        &cap,
        tally.run("builder capacity", reference(Point::Capacity)),
    ) {
        tally.check(
            "capacity: own assembly == ExperimentBuilder::run",
            identical(&own.m, &m),
        );
    }
    if let (Some(own), Some(m)) = (&first, tally.run("builder load", reference(Point::Load))) {
        tally.check(
            "load: own assembly == ExperimentBuilder::run",
            identical(&own.m, &m),
        );
    }

    let mut loads: Vec<Sample> = first.into_iter().collect();
    let mut round = Duration::ZERO;
    while another_round(loads.len(), round, deadline) {
        let t = Instant::now();
        let Some(s) = tally.run("load sample", sample(Point::Load)) else {
            break;
        };
        tally.check("load samples agree", identical(&s.m, &loads[0].m));
        loads.push(s);
        round = t.elapsed();
    }

    let (Some(cap), Some(load), Some(rss)) = (cap, loads.first(), rss) else {
        return Vec::new();
    };
    let setups = loads
        .iter()
        .chain([&cap])
        .map(|s| s.setup.total_s())
        .collect();
    let delivered_pct = load.transmitted as f64 / load.generated as f64 * 100.0;
    let ok_pct = (tally.attempted - tally.failed) as f64 / tally.attempted as f64 * 100.0;

    println!(
        "# {} seed {}: {} load samples; latency over {} packets; loss {:.4} %; \
         capacity {:.1} % of line rate; p99 {:.2} % of the ring-bound {:.1} us",
        w.name,
        seed,
        loads.len(),
        load.m.tx_packets,
        100.0 - delivered_pct,
        cap.m.throughput_gbps / line_rate_gbps(w.trace(seed).mean_frame_len()) * 100.0,
        load.m.p99_latency_us / ring_bound_us(cap.m.mpps) * 100.0,
        ring_bound_us(cap.m.mpps),
    );
    vec![
        ("setup_s".into(), median(setups), "s"),
        ("peak_rss_mb".into(), rss, "MB"),
        ("runs_ok_pct".into(), ok_pct, "%"),
        ("model_gbps".into(), cap.m.throughput_gbps, "Gbps"),
        ("model_mpps".into(), cap.m.mpps, "Mpps"),
        (
            "model_cycles_per_pkt".into(),
            cap.m.cycles_per_packet,
            "cycles",
        ),
        ("model_p50_us".into(), load.m.median_latency_us, "sim_us"),
        ("model_p99_us".into(), load.m.p99_latency_us, "sim_us"),
        ("model_delivered_pct".into(), delivered_pct, "%"),
    ]
}

/// Modeled stages, as the engine's attribution names them.
const STAGES: [(&str, &str); 5] = [
    ("rx/pmd", "dpdk.rx"),
    ("tx", "dpdk.tx"),
    ("metadata", "dpdk.metadata"),
    ("mempool", "dpdk.mempool"),
    ("scheduler", "click.scheduler"),
];

/// Per-packet modeled cost of each stage, every element scope summed
/// into `elements`, plus the share the attribution leaves unexplained.
fn stage_metrics(s: &Sample, out: &mut Metrics) {
    let profile = s.profile.as_ref().expect("traced runs carry a profile");
    let per_pkt = 1.0 / s.m.tx_packets.max(1) as f64;
    let groups = STAGES.iter().map(|&(_, g)| g).chain(["elements"]);
    for group in groups {
        let records = profile.records.iter().filter(|r| {
            let stage = STAGES.iter().find(|&&(name, _)| name == r.name);
            stage.map_or("elements", |&(_, g)| g) == group
        });
        let (mut cycles, mut stall, mut llc, mut dtlb) = (0.0, 0.0, 0u64, 0u64);
        for r in records {
            cycles += r.cycles;
            stall += r.stall_ns;
            llc += r.llc_load_misses;
            dtlb += r.dtlb_misses;
        }
        let name = |metric: &str| format!("{group}.{metric}");
        out.push((name("cycles_per_pkt"), cycles * per_pkt, "cycles"));
        out.push((name("stall_ns_per_pkt"), stall * per_pkt, "ns"));
        out.push((name("llc_misses_per_pkt"), llc as f64 * per_pkt, "count"));
        out.push((name("dtlb_misses_per_pkt"), dtlb as f64 * per_pkt, "count"));
    }
    let total_cycles = s.m.cycles_per_packet * s.m.tx_packets as f64;
    let total_stall = s.m.uncore_ns_per_packet * s.m.tx_packets as f64;
    let cycles: f64 = profile.records.iter().map(|r| r.cycles).sum();
    let stall: f64 = profile.records.iter().map(|r| r.stall_ns).sum();
    let unattributed = |total: f64, attributed: f64| {
        if total == 0.0 {
            0.0
        } else {
            (total - attributed) / total * 100.0
        }
    };
    out.push((
        "profile.unattributed_cycles_pct".into(),
        unattributed(total_cycles, cycles),
        "%",
    ));
    out.push((
        "profile.unattributed_stall_pct".into(),
        unattributed(total_stall, stall),
        "%",
    ));
}

/// Mean RX burst size from the `rx/pmd` batch histogram.
fn rx_batch_mean(s: &Sample) -> f64 {
    let profile = s.profile.as_ref().expect("traced runs carry a profile");
    let rx = profile.records.iter().find(|r| r.name == "rx/pmd");
    let (mut pkts, mut bursts) = (0u64, 0u64);
    for &(size, n) in rx.map_or(&[][..], |r| &r.batches) {
        pkts += size * n;
        bursts += n;
    }
    pkts as f64 / bursts.max(1) as f64
}

/// The traced run: the same engines with attribution on and the
/// dataplane's host time split off, checked against untraced twins. The
/// untraced twins also give the simulator's host speed.
fn traced(a: &Args, deadline: Instant, tally: &mut Tally) -> Metrics {
    let (w, seed) = (&a.workload, a.seed);
    let sample = |point, traced| move || run_sample(w, seed, point, traced);

    let cap = tally.run("capacity sample", sample(Point::Capacity, false));
    let cap_t = tally.run("traced capacity sample", sample(Point::Capacity, true));
    if let (Some(u), Some(t)) = (&cap, &cap_t) {
        tally.check("capacity: traced == untraced", identical(&u.m, &t.m));
    }

    let (mut plain, mut timed): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let (mut i, mut round) = (0, Duration::ZERO);
    while another_round(timed.len(), round, deadline) {
        let t = Instant::now();
        // Alternate which side runs first, so drift hits both alike.
        for traced in [i % 2 == 1, i % 2 == 0] {
            let Some(s) = tally.run("load sample", sample(Point::Load, traced)) else {
                continue;
            };
            let reference = plain.first().or(timed.first()).map_or(s.m, |r| r.m);
            tally.check("load: traced == untraced", identical(&s.m, &reference));
            if traced { &mut timed } else { &mut plain }.push(s);
        }
        i += 1;
        round = t.elapsed();
        if plain.is_empty() || timed.is_empty() {
            break;
        }
    }

    let (Some(cap_t), Some(load_t)) = (cap_t, timed.first()) else {
        return Vec::new();
    };
    if plain.is_empty() {
        return Vec::new();
    }
    let all = || plain.iter().chain(&timed).chain([&cap_t]);
    let setup = |f: fn(&perfbench::SetupTimes) -> f64| median(all().map(|s| f(&s.setup)).collect());
    let ns_per_pkt = |s: &Sample, host_s: f64| host_s * 1e9 / s.processed as f64;
    let dataplane_s = |s: &Sample| s.dataplane_s.expect("traced runs time the dataplane");
    let dp_ns = median(
        timed
            .iter()
            .map(|s| ns_per_pkt(s, dataplane_s(s)))
            .collect(),
    );
    let io_ns = median(
        timed
            .iter()
            .map(|s| ns_per_pkt(s, s.run_s - dataplane_s(s)))
            .collect(),
    );
    let dp_share = median(
        timed
            .iter()
            .map(|s| dataplane_s(s) / s.run_s * 100.0)
            .collect(),
    );
    let run_ns = median(timed.iter().map(|s| ns_per_pkt(s, s.run_s)).collect());
    let plain_ns = median(plain.iter().map(|s| ns_per_pkt(s, s.run_s)).collect());
    let pkts_per_s = median(plain.iter().map(|s| s.processed as f64 / s.run_s).collect());

    let tables = &load_t.tables;
    let sum = |f: fn(&packetmill::TableStats) -> u64| tables.iter().map(f).sum::<u64>() as f64;
    let lookups = sum(|t| t.lookups);

    let mut out: Metrics = vec![
        ("sim_pkts_per_s".into(), pkts_per_s, "pkt/s"),
        ("traffic.synth_s".into(), setup(|s| s.synth_s), "s"),
        ("compile.build_ir_s".into(), setup(|s| s.build_ir_s), "s"),
        (
            "click.graph_setup_s".into(),
            setup(|s| s.graph_setup_s),
            "s",
        ),
        ("engine.new_s".into(), setup(|s| s.engine_new_s), "s"),
        ("click.dataplane_host_ns_per_pkt".into(), dp_ns, "ns"),
        ("engine.io_host_ns_per_pkt".into(), io_ns, "ns"),
        ("click.dataplane_host_share_pct".into(), dp_share, "%"),
        (
            "trace_overhead_pct".into(),
            (run_ns - plain_ns) / plain_ns * 100.0,
            "%",
        ),
        ("dpdk.rx_batch_mean".into(), rx_batch_mean(load_t), "pkt"),
        (
            "dpdk.rx_batch_mean_capacity".into(),
            rx_batch_mean(&cap_t),
            "pkt",
        ),
        (
            "elements.table_hit_pct".into(),
            if lookups > 0.0 {
                sum(|t| t.hits) / lookups * 100.0
            } else {
                0.0
            },
            "%",
        ),
        (
            "elements.table_evictions_per_kpkt".into(),
            sum(|t| t.evictions) / load_t.processed as f64 * 1e3,
            "count",
        ),
    ];
    stage_metrics(&cap_t, &mut out);
    println!(
        "# {} seed {}: {} untraced + {} traced load samples",
        w.name,
        seed,
        plain.len(),
        timed.len()
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // `ExperimentBuilder` pins every other process-wide default through
    // its own setters, but has none to turn a `PM_TIMELINE` default off.
    std::env::remove_var("PM_TIMELINE");
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&args, deadline, &mut tally)
    } else {
        untraced(&args, deadline, &mut tally)
    };
    tally.check(
        "every metric measured and finite",
        !metrics.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite()),
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            println!("{name:<40} {v:>16.6} {unit}");
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
