//! Microbenchmarks of TD-Pipe's three decision mechanisms — the paper
//! argues they are cheap enough to run per scheduling iteration; these
//! benches quantify that for our implementation.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use tdpipe_baselines::common::make_lanes;
use tdpipe_core::greedy::GreedyPrefillPlanner;
use tdpipe_core::intensity::{IntensityComparator, PrefillPhaseEstimate};
use tdpipe_core::driver::RunState;
use tdpipe_core::steal::WorkStealer;
use tdpipe_hw::{DecodeProfile, GpuSpec, KernelModel};
use tdpipe_model::ModelSpec;
use tdpipe_workload::ShareGptLikeConfig;

fn bench_decisions(c: &mut Criterion) {
    // Algorithm 1: UpdateUsage + CheckSwitch for one admitted request,
    // paired with the matching removal so the tracked set stays bounded
    // across criterion's iterations.
    c.bench_function("greedy_update_and_check", |b| {
        let points: Vec<u32> = (1..=32).map(|i| i * 32).collect();
        let mut planner = GreedyPrefillPlanner::new(points, 500_000);
        b.iter(|| {
            planner.admit(black_box(0), black_box(300), black_box(250));
            let over = black_box(planner.would_overflow());
            planner.remove_request(0);
            over
        })
    });

    // Work stealing: one batch return with rebalancing. Fresh state per
    // batch — repeated returns would otherwise grow the withheld pool
    // without bound across criterion's iterations.
    c.bench_function("steal_on_batch_return_256", |b| {
        b.iter_batched(
            || {
                (
                    WorkStealer::new(&[256, 256, 256, 256]),
                    (0..256).collect::<Vec<usize>>(),
                )
            },
            |(mut stealer, mut members)| {
                stealer.on_batch_return(black_box(&mut members), 2);
                (stealer, members)
            },
            BatchSize::SmallInput,
        )
    });

    // Spatial-temporal comparison: one switch decision.
    let k = KernelModel::calibrated(GpuSpec::l20());
    let m = ModelSpec::llama2_13b();
    let profile = DecodeProfile::build(512, |bch| {
        k.stage_time(&m.decode_layer_work(bch, bch as u64 * 300), m.layers, &[])
    });
    let cmp = IntensityComparator::new(profile);
    c.bench_function("intensity_should_switch", |b| {
        let est = PrefillPhaseEstimate {
            longest_job: 1.5,
            phase_len: 12.0,
        };
        b.iter(|| cmp.should_switch(black_box(180), black_box(&est), black_box(0.04)))
    });

    // Eviction storm: decode steps over a nearly-full lane, where extends
    // keep overflowing and newest-first recompute-eviction fires batch
    // after batch — exercising the cohort's eviction walk and its lazy
    // max-heap victim selection.
    c.bench_function("eviction_storm_advance_decode", |b| {
        let trace = ShareGptLikeConfig::small(64, 17).generate();
        b.iter_batched(
            || {
                let mut st = RunState::new(&trace, &[], |r| r.output_len, false, false);
                let mut lane = make_lanes(trace.len(), 1, 600).pop().expect("one lane");
                while lane.head_fits(&st.pool) {
                    let (idx, _) = lane.admit_head(&mut st);
                    lane.start_decoding(&mut st, idx, 0.0);
                }
                (st, lane)
            },
            |(mut st, mut lane)| {
                for step in 1..=8 {
                    if lane.residents.is_empty() {
                        break;
                    }
                    lane.decode_step(&mut st, black_box(step as f64 * 0.1));
                }
                (st, lane)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_decisions);
criterion_main!(benches);
