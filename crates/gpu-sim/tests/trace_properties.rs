//! Property tests of the kernel-execution trace: for arbitrary overlapped
//! groups, every retired stream's recorded [`KernelSpan`]s are ordered,
//! non-overlapping, contiguous in kernel index, and account — interval by
//! interval — for the stream's whole [`StreamCompletion`] latency. These
//! are the invariants the telemetry exporter leans on when it lowers spans
//! onto Perfetto tracks (one track per stream, no overlapping slices).
//! Width-1 groups, which the engine runs in its lone-stream closed form,
//! must tile the latency exactly, bit for bit.

use gpu_sim::{Engine, GpuSpec, KernelDesc, KernelFaultSpec, NoiseModel, StreamId};
use proptest::prelude::*;

fn gpu() -> GpuSpec {
    GpuSpec::a100()
}

/// Arbitrary non-degenerate kernels: compute spans under- to over-occupied,
/// memory traffic from negligible to bandwidth-relevant.
fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (1e8f64..5e9, 1e6f64..1e8, 0.05f64..2.0)
        .prop_map(|(flops, bytes, occ)| KernelDesc::new(flops, bytes, occ * gpu().block_slots()))
}

fn arb_streams() -> impl Strategy<Value = Vec<Vec<KernelDesc>>> {
    proptest::collection::vec(proptest::collection::vec(arb_kernel(), 1..7), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stream_spans_partition_completion_latency(
        streams in arb_streams(),
        seed in 0u64..1000,
    ) {
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), seed);
        e.enable_trace();
        for s in &streams {
            e.add_stream(s, 0.0);
        }
        e.run_until_idle();
        let completions = e.completions();
        let trace = e.trace();
        // Every non-degenerate kernel left exactly one span.
        let n_kernels: usize = streams.iter().map(Vec::len).sum();
        prop_assert_eq!(trace.len(), n_kernels);
        for (sid, kernels) in streams.iter().enumerate() {
            let spans: Vec<_> = trace
                .iter()
                .filter(|s| s.stream == StreamId(sid))
                .collect();
            prop_assert_eq!(spans.len(), kernels.len());
            let c = completions.iter().find(|c| c.id == StreamId(sid)).unwrap();
            // Ordered, contiguous in both time and kernel index: within an
            // exclusive group each kernel starts the instant its
            // predecessor retires, so the spans tile the stream's latency.
            let mut sum = 0.0;
            for (i, s) in spans.iter().enumerate() {
                prop_assert_eq!(s.kernel, i);
                prop_assert!(s.end_ms > s.start_ms, "empty span {s:?}");
                prop_assert!(
                    s.occupancy > 0.0 && s.occupancy <= 1.0,
                    "occupancy out of range: {}",
                    s.occupancy
                );
                let expect = kernels[i].occupancy(&gpu());
                prop_assert!((s.occupancy - expect).abs() < 1e-12);
                sum += s.end_ms - s.start_ms;
            }
            for w in spans.windows(2) {
                prop_assert!(
                    (w[0].end_ms - w[1].start_ms).abs() < 1e-9,
                    "gap or overlap between consecutive kernels: {} vs {}",
                    w[0].end_ms,
                    w[1].start_ms
                );
            }
            prop_assert!((spans[0].start_ms - c.start_ms).abs() < 1e-9);
            prop_assert!((spans.last().unwrap().end_ms - c.end_ms).abs() < 1e-9);
            let latency = c.end_ms - c.start_ms;
            prop_assert!(
                (sum - latency).abs() < 1e-6 * latency.max(1.0),
                "spans sum {sum} vs stream latency {latency}"
            );
        }
    }

    /// A reused engine running width-1 groups (reset per group, as the
    /// executor runs single-query rounds), with and without kernel spikes:
    /// one span per kernel, each starting the instant its predecessor
    /// ends, from the stream's start to its end.
    #[test]
    fn lone_stream_spans_tile_completion_latency_exactly(
        groups in proptest::collection::vec(proptest::collection::vec(arb_kernel(), 1..40), 1..6),
        seed in 0u64..1000,
        spiky in (0u64..2).prop_map(|b| b == 1),
    ) {
        let mut e = Engine::new(gpu(), NoiseModel::calibrated(), seed);
        e.enable_trace();
        if spiky {
            e.set_kernel_faults(Some(KernelFaultSpec::always(seed, 0.3, 2.0)));
        }
        for (g, kernels) in groups.iter().enumerate() {
            e.reset(seed + g as u64);
            e.add_stream(kernels, 0.0);
            let c = e.step().expect("the group's one stream completes");
            prop_assert!(e.step().is_none());
            let trace = e.trace();
            prop_assert_eq!(trace.len(), kernels.len());
            prop_assert_eq!(e.events(), kernels.len() as u64);
            prop_assert_eq!(trace[0].start_ms.to_bits(), c.start_ms.to_bits());
            prop_assert_eq!(trace.last().unwrap().end_ms.to_bits(), c.end_ms.to_bits());
            for (i, s) in trace.iter().enumerate() {
                prop_assert_eq!(s.stream, c.id);
                prop_assert_eq!(s.kernel, i);
                prop_assert!(s.end_ms > s.start_ms, "empty span {s:?}");
            }
            for w in trace.windows(2) {
                prop_assert_eq!(w[0].end_ms.to_bits(), w[1].start_ms.to_bits());
            }
        }
    }
}
