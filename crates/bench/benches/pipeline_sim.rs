//! Microbenchmarks of the deterministic pipeline simulator and the
//! threaded hierarchy-controller runtime it models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use tdpipe_runtime::{Cluster, JobSpec};
use tdpipe_sim::{PipelineSim, SegmentKind, TransferMode};

fn bench_sim(c: &mut Criterion) {
    c.bench_function("pipeline_launch_4stage", |b| {
        let mut sim = PipelineSim::new(4, TransferMode::Async, false);
        let exec = [0.01, 0.01, 0.01, 0.012];
        let xfer = [0.001; 3];
        let mut tag = 0u64;
        b.iter(|| {
            tag += 1;
            black_box(sim.launch(0.0, &exec, &xfer, SegmentKind::Decode, tag))
        })
    });

    c.bench_function("pipeline_launch_rendezvous", |b| {
        let mut sim = PipelineSim::new(4, TransferMode::Rendezvous, false);
        let exec = [0.01, 0.01, 0.01, 0.012];
        let xfer = [0.001; 3];
        let mut tag = 0u64;
        b.iter(|| {
            tag += 1;
            black_box(sim.launch(0.0, &exec, &xfer, SegmentKind::Decode, tag))
        })
    });

    // Real threads: 1000 jobs through the 4-worker hierarchy-controller
    // (measures channel + virtual-clock overhead per job).
    c.bench_function("threaded_cluster_1000_jobs", |b| {
        let deadline = Duration::from_secs(10);
        b.iter(|| {
            let mut cluster = Cluster::spawn(4, TransferMode::Async);
            for id in 0..1000u64 {
                let exec = vec![0.01; 4];
                let xfer = vec![0.001; 3];
                let job = JobSpec {
                    id,
                    ready: 0.0,
                    exec,
                    xfer,
                    kind: SegmentKind::Decode,
                };
                cluster.launch(job).unwrap();
            }
            for _ in 0..1000 {
                cluster.next_completion(deadline).unwrap();
            }
            cluster.shutdown(deadline).unwrap()
        })
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
