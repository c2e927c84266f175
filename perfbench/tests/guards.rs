//! Operating-point guards: neither metric may be pinned by something
//! outside the NF. At the capacity point the link must not cap the
//! delivered rate; at the load point the RX ring must not hold packets
//! back, and nothing may be lost.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! each case runs full-length engines, which take minutes unoptimized.

use perfbench::{
    line_rate_gbps, ring_bound_us, run_sample, workloads, Point, Workload, HELD_OUT_SEED,
};

/// A seed used while the workloads were tuned, and the held-out one.
const SEEDS: [u64; 2] = [1, HELD_OUT_SEED];

fn guard(w: &Workload, seed: u64) {
    let cap = run_sample(w, seed, Point::Capacity, false).expect("capacity run");
    let line = line_rate_gbps(w.trace(seed).mean_frame_len());
    assert!(
        cap.m.throughput_gbps < 0.95 * line,
        "{} seed {seed}: capacity {:.2} Gbps is within 5 % of the {line:.2}-Gbps line rate",
        w.name,
        cap.m.throughput_gbps
    );

    let load = run_sample(w, seed, Point::Load, false).expect("load run");
    assert_eq!(
        load.transmitted, load.generated,
        "{} seed {seed}: the load point lost packets",
        w.name
    );
    let ring = ring_bound_us(cap.m.mpps);
    assert!(
        load.m.p99_latency_us < 0.2 * ring,
        "{} seed {seed}: load-point p99 {:.2} us is not far below the {ring:.1}-us ring bound",
        w.name,
        load.m.p99_latency_us
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-length runs; use --release")]
fn operating_points_are_not_pinned_outside_the_nf() {
    for w in workloads() {
        for seed in SEEDS {
            guard(&w, seed);
        }
    }
}

#[test]
fn the_seed_selects_the_trace() {
    for w in workloads() {
        let frames = |seed| {
            let t = w.trace(seed);
            (0..t.len())
                .map(|i| t.frame(i).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(frames(7), frames(7), "{}: same seed, same trace", w.name);
        assert_ne!(
            frames(7),
            frames(8),
            "{}: the seed reaches the trace",
            w.name
        );
    }
}
