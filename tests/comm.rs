//! The communication subsystem's contract:
//!
//! 1. the Identity codec over the cluster-default link model is
//!    *bit-for-bit* the uncompressed run — golden digest, reports,
//!    times and final weights — on every pinned `RunSpec` scenario, at
//!    every thread count;
//! 2. on any *other* link model, Identity changes timing (and, through
//!    it, nothing else under `WaitAll`): the accuracy trajectory is
//!    unchanged while round latencies move with the links;
//! 3. every codec is thread-count invariant (ambient and 1, 4, 8
//!    threads agree with each other and with the golden digests, bit
//!    for bit);
//! 4. lossy codecs ship strictly fewer uplink bytes than Identity and
//!    their accuracy curves stay within a pinned tolerance of the
//!    uncompressed run on the §5.1 `cifar10_resource_het` topology;
//! 5. bandwidth-heterogeneous links shape tier assignment exactly like
//!    CPU heterogeneity does (profiling is payload- and link-aware);
//! 6. hierarchical aggregation adds its combine cost — in the same
//!    transfer-seconds units — to every synchronous round.

mod common;

use common::{on_every_backend, pinned_scenarios, tiny};
use proptest::prelude::*;
use tifl::comm::{encode_compensated, EncodeScratch};
use tifl::obs::Digest128;
use tifl::prelude::*;
use tifl::tensor::{codec, ParamVec};

// -- 1. Identity × ClusterDefault is the legacy run, bit for bit -----------

#[test]
fn identity_comm_is_bit_for_bit_legacy_on_every_scenario() {
    for (name, cfg, spec, golden) in pinned_scenarios() {
        let (legacy, legacy_session) = Runner::with_spec(&cfg, spec.clone()).run_with_session();
        assert_eq!(legacy.digest_chain().to_string(), golden, "{name}");
        let identity_spec = RunSpec {
            comm: Some(CommSpec::default()),
            ..spec.clone()
        };
        for backend_spec in on_every_backend(&identity_spec) {
            let backend = backend_spec.backend.label();
            let (identity, identity_session) =
                Runner::with_spec(&cfg, backend_spec).run_with_session();
            assert_eq!(
                legacy, identity,
                "{name}: identity comm diverged on {backend}"
            );
            assert_eq!(
                legacy_session.global_params(),
                identity_session.global_params(),
                "{name}: identity comm changed the final weights on {backend}"
            );
        }
    }
}

// -- 2. other link models move time, not training ---------------------------

#[test]
fn identity_on_any_link_model_changes_timing_only_under_waitall() {
    // Under WaitAll with an unreachable Tmax, links decide *when*
    // updates arrive, never *which* or *what* — so any link model
    // leaves the accuracy trajectory and selections bit-identical and
    // only moves the clock.
    let cfg = tiny(91);
    let links = [
        LinkModel::GroupScaled {
            groups: 1,
            up_bps: 2.0e4,
            down_bps: 2.0e5,
            decay: 1.0,
            rtt_sec: 0.05,
        },
        LinkModel::GroupScaled {
            groups: 5,
            up_bps: 1.0e6,
            down_bps: 1.0e6,
            decay: 0.25,
            rtt_sec: 0.0,
        },
    ];
    let baseline = cfg.runner().run();
    for link in links {
        let run = Runner::with_spec(
            &cfg,
            RunSpec {
                comm: Some(CommSpec {
                    link,
                    ..CommSpec::default()
                }),
                ..RunSpec::default()
            },
        )
        .run();
        assert_eq!(
            baseline.accuracy_over_rounds(),
            run.accuracy_over_rounds(),
            "{link:?}: accuracy trajectory moved"
        );
        for (a, b) in baseline.rounds.iter().zip(&run.rounds) {
            assert_eq!(a.selected, b.selected, "{link:?}: selection moved");
            assert_eq!(a.aggregated, b.aggregated, "{link:?}: contributors moved");
        }
        assert_ne!(
            baseline
                .rounds
                .iter()
                .map(|r| r.latency.to_bits())
                .collect::<Vec<_>>(),
            run.rounds
                .iter()
                .map(|r| r.latency.to_bits())
                .collect::<Vec<_>>(),
            "{link:?}: latencies should move with the links"
        );
    }
}

// -- 3. every codec is backend-invariant ------------------------------------

#[test]
fn every_codec_is_backend_invariant() {
    // Golden (report digest-chain head, final-weights digest) per codec
    // from the last two-loop commit (22c929f).
    let codecs = [
        (
            CodecSpec::Identity,
            "4f39b8de0af9a1321ac84ba9d4c05981",
            "12176e8633c66bda4fc24bcc2b6ae203",
        ),
        (
            CodecSpec::QuantizeI8,
            "b19d4796a39511c36be7012802553c54",
            "156a7decdb9324400dd697909f8f1751",
        ),
        (
            CodecSpec::TopK { frac: 0.1 },
            "6984b580705a1244586902e682085843",
            "5cced487f43657ecd14457a89c4eb829",
        ),
    ];
    for (codec, golden_report, golden_weights) in codecs {
        // Over-selection stresses straggler handling alongside the
        // decode-and-fold path.
        let cfg = tiny(92);
        let spec = RunSpec {
            aggregation: Some(AggregationMode::FirstK { factor: 1.5 }),
            comm: Some(CommSpec::with_codec(codec)),
            ..RunSpec::default()
        };
        for backend_spec in on_every_backend(&spec) {
            let backend = backend_spec.backend.label();
            let (report, session) = Runner::with_spec(&cfg, backend_spec).run_with_session();
            assert_eq!(
                report.digest_chain().to_string(),
                golden_report,
                "{codec:?} on {backend}: report moved"
            );
            assert_eq!(
                Digest128::of_value(session.global_params()).to_string(),
                golden_weights,
                "{codec:?} on {backend}: final weights moved"
            );
        }
    }
}

// -- 4. lossy codecs: fewer bytes, pinned accuracy --------------------------

#[test]
fn compressed_runs_pin_accuracy_on_cifar10_resource_het() {
    // The §5.1 topology (50 clients, CPUs 4/2/1/0.5/0.1, |C| = 5) at a
    // test-sized horizon. Selection and contributors are
    // codec-independent (WaitAll, unreachable Tmax), so the accuracy
    // series compare point-for-point. Stated tolerances: int8
    // quantization is visually indistinguishable from uncompressed
    // (±0.02 everywhere); top-k(0.25) trades a slower early transient
    // (up to 0.2 below mid-curve) for a final accuracy within 0.05 —
    // the classic sparsified-FL shape.
    let mut cfg = ExperimentConfig::cifar10_resource_het(7);
    cfg.rounds = 60;
    cfg.eval_every = 5;
    cfg.data = DataScenario::Iid { per_client: 100 };
    let run = |codec: CodecSpec| {
        Runner::with_spec(
            &cfg,
            RunSpec {
                comm: Some(CommSpec::with_codec(codec)),
                ..RunSpec::default()
            },
        )
        .run()
    };
    // top-k(0.1) is the regression pin for error feedback: without
    // residual compensation this setting collapsed to ~0.20 final
    // accuracy vs ~0.42 uncompressed (see BENCH_comm_sweep.json history)
    // because 90% of every update was dropped forever. With EF the
    // dropped mass is flushed over later rounds, so the curve recovers
    // to within the same envelope as top-k(0.25).
    let identity = run(CodecSpec::Identity);
    for (codec, round_tol, final_tol) in [
        (CodecSpec::QuantizeI8, 0.02, 0.02),
        (CodecSpec::TopK { frac: 0.25 }, 0.2, 0.05),
        (CodecSpec::TopK { frac: 0.1 }, 0.25, 0.05),
    ] {
        let compressed = run(codec);
        // Strictly fewer uplink bytes, identical downlink.
        assert!(
            compressed.total_bytes_up() < identity.total_bytes_up(),
            "{codec:?}: {} !< {}",
            compressed.total_bytes_up(),
            identity.total_bytes_up()
        );
        assert_eq!(compressed.total_bytes_down(), identity.total_bytes_down());
        let id_curve = identity.accuracy_over_rounds();
        let comp_curve = compressed.accuracy_over_rounds();
        assert_eq!(id_curve.len(), comp_curve.len());
        for ((r, a), (r2, b)) in id_curve.iter().zip(&comp_curve) {
            assert_eq!(r, r2);
            assert!(
                (a - b).abs() <= round_tol,
                "{codec:?}: round {r} accuracy {b} vs uncompressed {a}"
            );
        }
        assert!(
            (identity.final_accuracy() - compressed.final_accuracy()).abs() <= final_tol,
            "{codec:?}: final {} vs {}",
            compressed.final_accuracy(),
            identity.final_accuracy()
        );
    }
}

#[test]
fn quantized_labels_and_bytes_flow_through_the_report() {
    let cfg = tiny(93);
    let report = cfg.runner().quantized_i8().run();
    assert_eq!(report.policy, "vanilla+i8");
    let model_params = 64 * 16 + 16 + 16 * 10 + 10; // tiny's MLP
    let per_upload = model_params as u64 + 8;
    let uploads: u64 = report
        .rounds
        .iter()
        .map(|r| r.aggregated.len() as u64)
        .sum();
    assert_eq!(report.total_bytes_up(), per_upload * uploads);
    assert_eq!(
        report.total_bytes_down(),
        4 * model_params as u64
            * report
                .rounds
                .iter()
                .map(|r| r.selected.len() as u64)
                .sum::<u64>()
    );
}

// -- 5. bandwidth heterogeneity shapes tiers --------------------------------

#[test]
fn bandwidth_heterogeneous_links_shape_tier_assignment() {
    // Homogeneous CPUs, tiered bandwidth: profiling must order tiers by
    // link speed alone — the comm-model analogue of the paper's
    // CPU-share tiering, previously inexpressible.
    let mut cfg = tiny(94);
    cfg.cpu_profile = vec![2.0]; // identical compute everywhere
    cfg.comm = Some(CommSpec {
        link: LinkModel::GroupScaled {
            groups: 5,
            up_bps: 1.0e6,
            down_bps: 1.0e6,
            decay: 0.25,
            rtt_sec: 0.0,
        },
        ..CommSpec::default()
    });
    let mut runner = cfg.runner();
    let tiers = runner.tiers().clone();
    assert_eq!(tiers.num_tiers(), 5);
    // 10 clients, 5 bandwidth groups of 2: tier t must hold exactly
    // bandwidth group t (clients 2t and 2t+1).
    for t in 0..5 {
        let mut members = tiers.tiers[t].clients.clone();
        members.sort_unstable();
        assert_eq!(members, vec![2 * t, 2 * t + 1], "tier {t}");
    }
    // A fast-tier policy then beats a slow-tier policy on wall time,
    // purely through bandwidth.
    let fast = runner.policy(&Policy::fast(5)).run().total_time();
    let slow = runner.policy(&Policy::slow(5)).run().total_time();
    assert!(slow > 2.0 * fast, "slow {slow} vs fast {fast}");
}

#[test]
fn compressed_uploads_speed_up_bandwidth_bound_rounds() {
    // When the wire dominates (slow uplinks), quantization must cut
    // round latency nearly 4x; top-k(0.1) nearly 5x.
    let mut cfg = tiny(95);
    cfg.latency.base_overhead_sec = 0.0;
    cfg.latency.flops_per_cpu_sec = 1.0e12; // compute ~ free
    let time = |codec: CodecSpec| {
        Runner::with_spec(
            &cfg,
            RunSpec {
                comm: Some(CommSpec {
                    codec,
                    link: LinkModel::GroupScaled {
                        groups: 1,
                        up_bps: 1.0e4,
                        down_bps: 1.0e7,
                        decay: 1.0,
                        rtt_sec: 0.0,
                    },
                    hierarchy: None,
                }),
                ..RunSpec::default()
            },
        )
        .run()
        .total_time()
    };
    let identity = time(CodecSpec::Identity);
    let quant = time(CodecSpec::QuantizeI8);
    let topk = time(CodecSpec::TopK { frac: 0.1 });
    assert!(
        quant < identity / 3.0,
        "quantization should cut uplink-bound time ~4x: {quant} vs {identity}"
    );
    assert!(
        topk < identity / 4.0,
        "top-k(0.1) should cut uplink-bound time ~5x: {topk} vs {identity}"
    );
}

// -- 6. hierarchical aggregation --------------------------------------------

#[test]
fn hierarchical_aggregation_is_a_runspec_reachable_scenario() {
    let cfg = tiny(96);
    let flat = cfg.runner().run();
    let mut runner = cfg.runner();
    let hier = runner.hierarchical(2, 1.0e6).run();
    // Same training outcome (the hierarchy is a latency model; the
    // numerics stay the canonical fold)...
    assert_eq!(flat.accuracy_over_rounds(), hier.accuracy_over_rounds());
    // ... with the combine cost added to every round.
    for (f, h) in flat.rounds.iter().zip(&hier.rounds) {
        assert_eq!(f.selected, h.selected);
        assert!(
            h.latency > f.latency,
            "round {}: hierarchy should add combine latency",
            f.round
        );
    }
    // And it stays thread-count invariant like everything else.
    assert_eq!(
        hier.digest_chain().to_string(),
        "535f8097ac6a549137733e9c652892de"
    );
    let event = Runner::with_spec(
        &cfg,
        RunSpec {
            backend: ExecBackend::EventDriven { threads: 4 },
            ..runner.spec().clone()
        },
    )
    .run();
    assert_eq!(hier, event);
}

// -- CLI ---------------------------------------------------------------------

#[test]
fn spec_cli_runs_a_compressed_bandwidth_het_request() {
    let request = RunRequest {
        experiment: tiny(97),
        rounds: Some(5),
        seed: None,
        clients_per_round: None,
        spec: RunSpec {
            comm: Some(CommSpec {
                codec: CodecSpec::QuantizeI8,
                link: LinkModel::GroupScaled {
                    groups: 5,
                    up_bps: 1.0e6,
                    down_bps: 1.0e6,
                    decay: 0.5,
                    rtt_sec: 0.01,
                },
                hierarchy: None,
            }),
            ..RunSpec::default()
        },
    };
    let dir = std::env::temp_dir().join(format!("tifl-comm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run.json");
    std::fs::write(&path, serde_json::to_string_pretty(&request).unwrap()).expect("write spec");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["run", "--spec", path.to_str().unwrap()])
        .output()
        .expect("tifl binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "tifl run --spec failed: {stdout}");
    assert!(
        stdout.contains("vanilla+i8: 5 rounds"),
        "unexpected summary: {stdout}"
    );
    assert!(stdout.contains("MB up"), "missing wire summary: {stdout}");

    // The CLI result matches running the same request in-process.
    let report = request.run();
    assert_eq!(report.policy, "vanilla+i8");
    assert_eq!(report.rounds.len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

// -- property tests ----------------------------------------------------------

/// A client's first upload of `p` under `codec`: the one encoder, with
/// a zero error-feedback residual, on a fresh scratch.
fn first_upload(codec: CodecSpec, p: &ParamVec, base: &ParamVec) -> EncodedUpdate {
    let mut residual = vec![0.0; p.len()];
    encode_compensated(codec, &mut residual, p, base, &mut EncodeScratch::new())
}

/// The weights `enc` folds to against `base`, through the fold's own
/// `axpy_into`.
fn decoded(enc: &EncodedUpdate, base: &ParamVec) -> ParamVec {
    let mut out = if enc.is_delta() {
        base.clone()
    } else {
        ParamVec::zeros(base.len())
    };
    enc.axpy_into(1.0, &mut out);
    out
}

proptest! {
    /// Identity encodes losslessly, bit for bit, whatever the weights.
    #[test]
    fn prop_identity_round_trip_is_lossless(
        values in prop::collection::vec(-100.0f32..100.0, 1..200),
    ) {
        let p = ParamVec(values);
        let base = ParamVec::zeros(p.len());
        let enc = first_upload(CodecSpec::Identity, &p, &base);
        prop_assert_eq!(&enc, &EncodedUpdate::Dense(p.clone()));
        prop_assert_eq!(decoded(&enc, &base), p.clone());
        prop_assert_eq!(enc.wire_bytes(), 4 * p.len() as u64);
    }

    /// Int8 quantization errs by at most one quantization step per
    /// element, at a quarter of the dense wire size (+ header). With a
    /// zero residual the payload is the plain kernel's, and its fold is
    /// the scalar dequantize reference's, bit for bit.
    #[test]
    fn prop_quantize_i8_error_within_one_step(
        values in prop::collection::vec(-50.0f32..50.0, 1..300),
    ) {
        let p = ParamVec(values);
        let base = ParamVec::zeros(p.len());
        let enc = first_upload(CodecSpec::QuantizeI8, &p, &base);
        let EncodedUpdate::QuantI8 { min, scale, codes, .. } = &enc else {
            panic!("wrong payload {enc:?}");
        };
        let mut want = Vec::new();
        let (want_min, want_scale) = codec::quantize_i8_into(p.as_slice(), &mut want);
        prop_assert_eq!((min.to_bits(), scale.to_bits()), (want_min.to_bits(), want_scale.to_bits()));
        prop_assert_eq!(codes, &want);
        let got = decoded(&enc, &base);
        let mut reference = vec![0.0; p.len()];
        codec::dequantize_i8_axpy_scalar(1.0, *min, *scale, codes, &mut reference);
        prop_assert_eq!(bits(got.as_slice()), bits(&reference));
        for (x, y) in p.as_slice().iter().zip(got.as_slice()) {
            prop_assert!((x - y).abs() <= *scale,
                "error {} exceeds step {}", (x - y).abs(), scale);
        }
        prop_assert_eq!(enc.wire_bytes(), p.len() as u64 + 8);
    }

    /// Top-k reconstructs the kept fraction exactly (same f32 bits) and
    /// leaves every other coordinate at the base value.
    #[test]
    fn prop_topk_preserves_top_fraction_exactly(
        values in prop::collection::vec(-10.0f32..10.0, 2..150),
        base_vals in prop::collection::vec(-10.0f32..10.0, 2..150),
        frac in 0.05f64..1.0,
    ) {
        let n = values.len().min(base_vals.len());
        let p = ParamVec(values[..n].to_vec());
        let base = ParamVec(base_vals[..n].to_vec());
        let enc = first_upload(CodecSpec::TopK { frac }, &p, &base);
        let k = CodecSpec::top_k_of(frac, n);
        prop_assert_eq!(enc.wire_bytes(), 8 * k as u64);

        let decoded = decoded(&enc, &base);
        // Rank coordinates by |delta| (ties toward the lower index) and
        // split into kept / dropped.
        let mut order: Vec<usize> = (0..n).collect();
        let delta: Vec<f32> = (0..n).map(|i| p.0[i] - base.0[i]).collect();
        order.sort_by(|&a, &b| {
            delta[b].abs().total_cmp(&delta[a].abs()).then(a.cmp(&b))
        });
        for (rank, &i) in order.iter().enumerate() {
            if rank < k {
                prop_assert_eq!(
                    decoded.0[i].to_bits(),
                    (base.0[i] + delta[i]).to_bits(),
                    "kept coordinate {} must reconstruct exactly", i
                );
            } else {
                prop_assert_eq!(
                    decoded.0[i].to_bits(), base.0[i].to_bits(),
                    "dropped coordinate {} must keep the base", i
                );
            }
        }
    }

    /// Wire sizes are data-independent: planned == actual for every
    /// codec and model size.
    #[test]
    fn prop_wire_bytes_match_plan(
        values in prop::collection::vec(-5.0f32..5.0, 1..100),
        codec_pick in 0u8..3,
        frac in 0.01f64..1.0,
    ) {
        let codec = match codec_pick {
            0 => CodecSpec::Identity,
            1 => CodecSpec::QuantizeI8,
            _ => CodecSpec::TopK { frac },
        };
        let p = ParamVec(values);
        let base = ParamVec::zeros(p.len());
        prop_assert_eq!(
            first_upload(codec, &p, &base).wire_bytes(),
            codec.encoded_bytes(p.len())
        );
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}
