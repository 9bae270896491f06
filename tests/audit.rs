//! Integration tests for the run-auditing & divergence-observability
//! layer, pinning the ISSUE's acceptance criteria:
//!
//! 1. **Digest chains** — order-sensitive, prefix-stable, collision-free
//!    across the runspec axes (proptested), and *backend-invariant*:
//!    the same cell on `Lockstep` and `EventDriven` chains to the same
//!    head, because backends are result knobs, never result changers;
//! 2. **`tifl diff`** — localizes an injected single-round perturbation
//!    to exactly that round, without re-running, in the library and
//!    through the binary (`--format json`);
//! 3. **`tifl audit --deny`** — catches one-byte artifact corruption
//!    and names the corrupt key;
//! 4. **`tifl merge`** — the union of two disjoint `--shard` half
//!    stores is byte-identical to the uninterrupted unsharded sweep;
//! 5. **Compatibility** — artifacts written before the digest field
//!    existed still load, validate, audit clean, and diff; artifacts
//!    that still carry the `label` and `metrics` members older stores
//!    wrote load, validate, audit clean and trace;
//! 6. **`tifl trace`** — re-runs an artifact's request and names the
//!    first round where the regenerated report leaves the stored one.

use proptest::prelude::*;
use tifl::prelude::*;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tifl-audit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A shrunken §5.1 resource-heterogeneity config (the `tests/sweep.rs`
/// scaling): real 5-group CPU profile, small data/model so a run is
/// milliseconds.
fn small_resource_het(seed: u64, rounds: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cifar10_resource_het(seed);
    cfg.num_clients = 10;
    cfg.clients_per_round = 2;
    cfg.rounds = rounds;
    cfg.data = DataScenario::Iid { per_client: 30 };
    cfg.model = ModelSpec::Mlp {
        input: 64,
        hidden: 16,
        classes: 10,
    };
    cfg.eval_every = 2;
    cfg.profiler = ProfilerConfig {
        sync_rounds: 2,
        tmax_sec: 1e6,
    };
    cfg
}

/// The pinned matrix: selection × both backends, 6 runs / 3 distinct
/// result cells.
fn backend_matrix() -> SweepManifest {
    let mut manifest = SweepManifest::new(small_resource_het(42, 4));
    manifest.axes.selection = vec![
        SelectionStrategy::Vanilla,
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::Adaptive { config: None },
    ];
    manifest.axes.backend = vec![
        ExecBackend::Lockstep,
        ExecBackend::EventDriven { threads: 2 },
    ];
    manifest
}

fn synthetic_round(i: u64, salt: u64) -> RoundReport {
    RoundReport {
        round: i,
        time: (i + 1) as f64 * 3.0,
        latency: 3.0,
        selected: vec![i as usize % 5, salt as usize % 7],
        aggregated: vec![i as usize % 5],
        accuracy: i.is_multiple_of(2).then(|| (salt % 100) as f64 / 100.0),
        loss: Some(1.0 + salt as f32 / 10.0),
        bytes_down: 100 + salt,
        bytes_up: 50 + i,
    }
}

fn synthetic_report(rounds: u64, salt: u64) -> TrainingReport {
    TrainingReport {
        policy: format!("synthetic-{salt}"),
        rounds: (0..rounds).map(|i| synthetic_round(i, salt)).collect(),
    }
}

// -- digest-chain properties -------------------------------------------------

proptest! {
    /// Swapping any two distinct rounds changes the chain head (order
    /// sensitivity), and the head over the first k rounds equals the
    /// k-th intermediate head (prefix property).
    #[test]
    fn prop_chain_is_order_sensitive_and_prefix_stable(
        rounds in 2u64..8,
        salt in 0u64..1000,
        i in 0usize..8,
        j in 0usize..8,
    ) {
        let report = synthetic_report(rounds, salt);
        let heads = report.chain_heads();
        prop_assert_eq!(heads.len() as u64, rounds);
        prop_assert_eq!(*heads.last().unwrap(), report.digest_chain());

        // Prefix property: truncating to k rounds reproduces head k-1.
        for k in 1..=rounds as usize {
            let mut prefix = report.clone();
            prefix.rounds.truncate(k);
            prop_assert_eq!(prefix.digest_chain(), heads[k - 1]);
        }

        // Order sensitivity: swapping two distinct rounds changes the
        // head (round indices differ, so the contents always differ).
        let (i, j) = (i % rounds as usize, j % rounds as usize);
        if i != j {
            let mut swapped = report.clone();
            swapped.rounds.swap(i, j);
            prop_assert!(swapped.digest_chain() != report.digest_chain());
        }
    }

    /// Distinct round contents digest distinctly, and any single-field
    /// perturbation of a round moves the whole chain head.
    #[test]
    fn prop_chain_separates_content(
        rounds in 1u64..6,
        salt_a in 0u64..500,
        salt_b in 500u64..1000,
        victim in 0usize..6,
    ) {
        let a = synthetic_report(rounds, salt_a);
        let b = synthetic_report(rounds, salt_b);
        prop_assert!(a.digest_chain() != b.digest_chain());

        let mut perturbed = a.clone();
        let victim = victim % rounds as usize;
        perturbed.rounds[victim].bytes_up ^= 1;
        prop_assert!(perturbed.digest_chain() != a.digest_chain());
        // And the diff pins the divergence to exactly the victim.
        let diff = a.diff("a", &perturbed, "b");
        match diff.divergence {
            Divergence::DivergedAt { round, .. } => prop_assert_eq!(round, victim as u64),
            other => prop_assert!(false, "expected DivergedAt, got {:?}", other),
        }
    }
}

/// Collision freedom across the runspec axes, pinned on real runs: the
/// 6-run backend matrix yields exactly 3 distinct chain heads — one
/// per selection strategy — with the two backends of each cell
/// chaining *equal* (backends are result-invariant, so equal heads
/// across backends is the determinism contract, not a collision).
#[test]
fn chains_separate_cells_and_ignore_backends() {
    let manifest = backend_matrix();
    let runs = manifest.expand();
    assert_eq!(runs.len(), 6);
    let sweep = SweepScheduler::new(2).execute(&runs, None, false);
    assert_eq!(sweep.failed(), 0);
    let reports = sweep.into_reports().expect("no run fails");

    let heads: Vec<Digest128> = reports.iter().map(TrainingReport::digest_chain).collect();
    let distinct: std::collections::BTreeSet<Digest128> = heads.iter().copied().collect();
    assert_eq!(distinct.len(), 3, "one head per selection strategy");
    // Expansion order is selection-major (backend innermost): pairs
    // (0,1), (2,3), (4,5) are the same cell on the two backends.
    for pair in heads.chunks(2) {
        assert_eq!(pair[0], pair[1], "backends must chain identically");
    }
}

// -- diff --------------------------------------------------------------------

#[test]
fn diff_cli_localizes_an_injected_perturbation() {
    let dir = tmp_dir("diff-cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = synthetic_report(5, 77);
    let mut b = a.clone();
    b.rounds[3].accuracy = Some(0.123);
    let a_path = dir.join("a.json");
    let b_path = dir.join("b.json");
    std::fs::write(&a_path, serde_json::to_string_pretty(&a).unwrap()).expect("write");
    std::fs::write(&b_path, serde_json::to_string_pretty(&b).unwrap()).expect("write");

    // Identical operands: exit 0, says "identical".
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["diff", a_path.to_str().unwrap(), a_path.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    assert!(out.status.success(), "self-diff must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("identical"));

    // Diverging operands: exit nonzero, human output names round 3.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    assert!(!out.status.success(), "diverging diff must exit nonzero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("first divergent round: 3"),
        "human output: {text}"
    );
    assert!(text.contains("accuracy"), "human output: {text}");

    // JSON output parses back into the library's DiffReport.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "diff",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
            "--format",
            "json",
        ])
        .output()
        .expect("tifl runs");
    let parsed: DiffReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("json parses");
    assert_eq!(
        parsed,
        a.diff(a_path.to_str().unwrap(), &b, b_path.to_str().unwrap())
    );
    match parsed.divergence {
        Divergence::DivergedAt { round, deltas, .. } => {
            assert_eq!(round, 3);
            assert!(deltas.iter().any(|d| d.field == "accuracy"));
        }
        other => panic!("expected DivergedAt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -- audit -------------------------------------------------------------------

/// Bump the first digit of the first `"bytes_up"` value in an
/// artifact's JSON — a parse-safe, digest-breaking one-byte flip.
fn flip_one_byte(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("read artifact");
    let at = text.find("\"bytes_up\"").expect("field present");
    let digit = text[at..]
        .char_indices()
        .find(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| at + i)
        .expect("digit after field");
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'9' {
        b'0'
    } else {
        bytes[digit] + 1
    };
    std::fs::write(path, bytes).expect("write corrupted artifact");
}

#[test]
fn trace_cli_flags_a_report_that_disagrees_with_its_request() {
    // An artifact whose report was edited and re-digested is
    // self-consistent, so it loads and audits clean; only re-running its
    // request shows the report is not the one the request produces.
    let dir = tmp_dir("trace-edited");
    let store_dir = dir.join("arts");
    let mut builder = SweepBuilder::new(ExperimentConfig::tiny(12));
    let sweep = builder.rounds(3).workers(1).out(&store_dir).run();
    assert_eq!(sweep.completed(), 1);
    let store = RunStore::open(&store_dir).expect("store opens");
    let key = store.keys()[0];
    let mut artifact = store.load_checked(key).expect("artifact loads");
    artifact.report.rounds[1].latency *= 1.5;
    artifact.digest = Some(artifact.report.digest_chain());
    let bytes = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
    store
        .write_bytes(key, bytes.as_bytes())
        .expect("edited artifact writes");
    let audit = audit_store(&store);
    assert!(audit.is_clean(), "{}", audit.render_text());

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", store.path_of(key).to_str().unwrap()])
        .output()
        .expect("tifl runs");
    assert_eq!(out.status.code(), Some(1), "an edited report fails trace");
    let (text, err) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        text.contains("first divergent round: 1") && text.contains("latency"),
        "must name the round and the field: {text}"
    );
    assert!(err.contains("regenerated report diverges"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_cli_catches_one_byte_corruption_and_names_the_key() {
    // One real run into a store, via the library (cheap: tiny config).
    let dir = tmp_dir("audit-cli");
    let store_dir = dir.join("arts");
    let mut builder = SweepBuilder::new(ExperimentConfig::tiny(11));
    let sweep = builder.rounds(3).workers(1).out(&store_dir).run();
    assert_eq!(sweep.completed(), 1);
    let store = RunStore::open(&store_dir).expect("store opens");
    let key = store.keys()[0];

    let audit = |deny: bool| {
        let mut args = vec!["audit", store_dir.to_str().unwrap()];
        if deny {
            args.push("--deny");
        }
        std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(&args)
            .output()
            .expect("tifl runs")
    };

    // Clean store: exits 0 even under --deny.
    let out = audit(true);
    assert!(out.status.success(), "clean store must pass --deny");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 findings"));

    // Flip one byte inside the report: --deny exits nonzero and the
    // output names the corrupt key; without --deny it still reports
    // but exits 0.
    flip_one_byte(&store.path_of(key));
    let out = audit(true);
    assert!(!out.status.success(), "corruption must fail --deny");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&key.to_string()), "must name the key: {text}");
    assert!(text.contains("corrupt"), "must flag corruption: {text}");
    let out = audit(false);
    assert!(out.status.success(), "report-only mode exits 0");

    // --format json --out writes a machine-readable AuditReport.
    let json_path = dir.join("audit.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "audit",
            store_dir.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("tifl runs");
    assert!(out.status.success());
    let from_stdout: AuditReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("stdout json");
    let from_file: AuditReport =
        serde_json::from_str(&std::fs::read_to_string(&json_path).expect("file"))
            .expect("file json");
    assert_eq!(from_stdout, from_file);
    assert_eq!(from_file.artifacts, 1);
    assert!(!from_file.is_clean());
    assert_eq!(from_file.findings[0].key, Some(key));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_flags_leftover_tmp_files() {
    let dir = tmp_dir("audit-tmp");
    let store = RunStore::open(&dir).expect("store opens");
    std::fs::write(dir.join("deadbeef.json.tmp"), "{").expect("write");
    let report = audit_store(&store);
    assert!(!report.is_clean());
    assert_eq!(report.findings[0].kind, "tmp-leftover");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_nesting_bomb_in_a_store_is_unparseable_and_audit_names_its_key() {
    // 200 KB of `[` filed as an artifact: a parser that recursed without
    // a bound overflowed its stack here and aborted the process.
    let dir = tmp_dir("bomb");
    let store = RunStore::open(&dir).expect("store opens");
    let key = RunKey::parse("0123456789abcdef0123456789abcdef").expect("a key");
    std::fs::write(store.path_of(key), "[".repeat(200_000)).expect("write");

    let unparseable = |result: Result<RunArtifact, StoreError>| {
        let err = result.expect_err("a bomb is no artifact");
        assert!(
            matches!(&err.kind, StoreErrorKind::Unparseable(cause) if cause.contains("nesting deeper than 128")),
            "{err}"
        );
    };
    unparseable(store.load_checked(key));
    // `sweep --resume` loads artifacts on its workers' smaller stacks.
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn_scoped(s, || unparseable(store.load_checked(key)))
            .expect("thread spawns")
            .join()
            .expect("no panic");
    });

    let tifl = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args(args)
            .output()
            .expect("tifl runs")
    };
    let out = tifl(&["audit", dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains(&key.to_string()), "must name the key: {text}");
    let out = tifl(&["report", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_cli_does_not_create_a_missing_store() {
    let dir = tmp_dir("report-missing");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["report", dir.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("[tifl] no store directory at {}", dir.display())),
        "{stderr}"
    );
    assert!(!dir.exists(), "report created {}", dir.display());
}

#[test]
fn merge_cli_creates_nothing_when_an_input_is_missing() {
    let (present, missing, out) = (
        tmp_dir("merge-present"),
        tmp_dir("merge-missing"),
        tmp_dir("merge-out"),
    );
    std::fs::create_dir_all(&present).expect("temp dir");
    let out_cmd = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .arg("merge")
        .args([&present, &missing])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("tifl runs");
    let stderr = String::from_utf8_lossy(&out_cmd.stderr);
    assert_eq!(out_cmd.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "[tifl] no store directory at {}",
            missing.display()
        )),
        "{stderr}"
    );
    assert!(!out.exists(), "merge created {}", out.display());
    let _ = std::fs::remove_dir_all(&present);
}

// -- shard + merge -----------------------------------------------------------

#[test]
fn merged_shard_stores_are_byte_identical_to_the_unsharded_sweep() {
    let manifest = backend_matrix();
    let runs = manifest.expand();
    assert_eq!(runs.len(), 6);

    // Reference: the uninterrupted, unsharded sweep.
    let full_dir = tmp_dir("shard-full");
    let full_store = RunStore::open(&full_dir).expect("store opens");
    let full = SweepScheduler::new(2).execute(&runs, Some(&full_store), false);
    assert_eq!(full.completed(), 6);

    // Two disjoint halves, as two hosts would run them.
    let half_dirs = [tmp_dir("shard-a"), tmp_dir("shard-b")];
    for (i, dir) in half_dirs.iter().enumerate() {
        let store = RunStore::open(dir).expect("store opens");
        let shard = shard_runs(&runs, i, 2);
        assert_eq!(shard.len(), 3);
        let sweep = SweepScheduler::new(2).execute(&shard, Some(&store), false);
        assert_eq!(sweep.completed(), 3);
    }

    // Merge through the binary with --deny: must pass (no conflicts).
    let merged_dir = tmp_dir("shard-merged");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "merge",
            half_dirs[0].to_str().unwrap(),
            half_dirs[1].to_str().unwrap(),
            "--out",
            merged_dir.to_str().unwrap(),
            "--deny",
        ])
        .output()
        .expect("tifl runs");
    assert!(
        out.status.success(),
        "clean merge must pass --deny: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Byte-identical to the unsharded sweep, key for key (the summary
    // sidecar is per-execution and deliberately not merged).
    let merged = RunStore::open(&merged_dir).expect("store opens");
    assert_eq!(merged.keys(), full_store.keys());
    for key in full_store.keys() {
        assert_eq!(
            std::fs::read(merged.path_of(key)).expect("merged artifact"),
            std::fs::read(full_store.path_of(key)).expect("full artifact"),
            "artifact {key} must be byte-identical"
        );
    }
    assert!(!merged.summary_path().exists());

    // A conflicting overlap fails --deny: re-merge after perturbing a
    // digest-covered byte in one half (parse-safe digit bump).
    let victim = RunStore::open(&half_dirs[0]).expect("store opens");
    flip_one_byte(&victim.path_of(victim.keys()[0]));
    let remerge_dir = tmp_dir("shard-remerge");
    // Seed the output with the pristine full store's copy so the
    // overlap comparison sees the conflict.
    let remerge_store = RunStore::open(&remerge_dir).expect("store opens");
    merge_stores(std::slice::from_ref(&full_dir), &remerge_store).expect("seed merge");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "merge",
            half_dirs[0].to_str().unwrap(),
            half_dirs[1].to_str().unwrap(),
            "--out",
            remerge_dir.to_str().unwrap(),
            "--deny",
        ])
        .output()
        .expect("tifl runs");
    assert!(
        !out.status.success(),
        "conflicting merge must fail --deny: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("conflict"));

    for dir in [full_dir, merged_dir, remerge_dir]
        .into_iter()
        .chain(half_dirs)
    {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sweep_cli_shard_halves_union_to_the_full_expansion() {
    let mut manifest = SweepManifest::new(ExperimentConfig::tiny(21));
    manifest.rounds = Some(2);
    manifest.axes.seeds = vec![1, 2, 3];
    let runs = manifest.expand();
    assert_eq!(runs.len(), 3);

    let dir = tmp_dir("cli-shard");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest_path = dir.join("sweep.json");
    std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .expect("write manifest");

    let mut shard_keys = Vec::new();
    for i in 0..2 {
        let arts = dir.join(format!("half-{i}"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
            .args([
                "sweep",
                manifest_path.to_str().unwrap(),
                "--workers",
                "1",
                "--out",
                arts.to_str().unwrap(),
                "--shard",
                &format!("{i}/2"),
            ])
            .output()
            .expect("tifl runs");
        assert!(
            out.status.success(),
            "shard {i}/2 failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        shard_keys.push(RunStore::open(&arts).expect("store opens").keys());
    }
    // Disjoint and covering.
    assert_eq!(shard_keys[0].len() + shard_keys[1].len(), 3);
    let mut union: Vec<RunKey> = shard_keys.concat();
    union.sort_unstable();
    union.dedup();
    let mut expected: Vec<RunKey> = runs.iter().map(|r| r.key).collect();
    expected.sort_unstable();
    assert_eq!(union, expected);

    // A malformed shard spec is rejected.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "sweep",
            manifest_path.to_str().unwrap(),
            "--shard",
            "2/2",
            "--out",
            dir.join("bad").to_str().unwrap(),
        ])
        .output()
        .expect("tifl runs");
    assert!(!out.status.success(), "--shard 2/2 must be rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

// -- compatibility & trace satellites ----------------------------------------

#[test]
fn predigest_artifacts_load_validate_audit_and_diff() {
    // Simulate a store written before the digest field existed: strip
    // it from a fresh artifact's JSON. Everything —
    // load, resume validation, audit, diff — must still work, with the
    // chain computed on the fly.
    let dir = tmp_dir("compat");
    let mut builder = SweepBuilder::new(ExperimentConfig::tiny(31));
    builder.rounds(3).workers(1).out(&dir);
    assert_eq!(builder.run().completed(), 1);
    let store = RunStore::open(&dir).expect("store opens");
    let key = store.keys()[0];
    let request = store.load_checked(key).expect("loads").request;

    let text = std::fs::read_to_string(store.path_of(key)).expect("read");
    let mut value: serde::Value = serde_json::from_str(&text).expect("parses");
    strip_fields(&mut value, &["digest"]);
    std::fs::write(
        store.path_of(key),
        serde_json::to_string_pretty(&value).expect("renders"),
    )
    .expect("rewrite");

    let artifact = store.load_checked(key).expect("pre-digest artifact loads");
    assert_eq!(artifact.digest, None);
    assert!(
        store.validate_checked(key, &request).is_ok(),
        "resume still validates"
    );
    let audit = audit_store(&store);
    assert!(
        audit.is_clean(),
        "pre-digest artifact audits clean: {:?}",
        audit.findings
    );
    // Diffing a pre-digest artifact against itself through the binary.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args([
            "diff",
            store.path_of(key).to_str().unwrap(),
            store.path_of(key).to_str().unwrap(),
        ])
        .output()
        .expect("tifl runs");
    assert!(out.status.success(), "pre-digest self-diff exits 0");
    let _ = std::fs::remove_dir_all(&dir);
}

fn strip_fields(value: &mut serde::Value, names: &[&str]) {
    if let serde::Value::Object(fields) = value {
        fields.retain(|(name, _)| !names.contains(&name.as_str()));
    }
}

#[test]
fn trace_cli_explains_metricless_artifacts_and_bare_reports() {
    let dir = tmp_dir("trace-msg");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // An artifact with neither `metrics` nor `digest` traces like any
    // other: the report it carries is the check.
    let request = RunRequest {
        experiment: ExperimentConfig::tiny(41),
        rounds: Some(2),
        seed: None,
        clients_per_round: None,
        spec: RunSpec::default(),
    };
    let report = request.run();
    let key = RunKey::of(&request);
    let artifact = RunArtifact::new(key, request, report.clone());
    let mut value: serde::Value =
        serde_json::from_str(&serde_json::to_string(&artifact).unwrap()).expect("parses");
    strip_fields(&mut value, &["digest"]);
    let art_path = dir.join("artifact.json");
    let text = serde_json::to_string_pretty(&value).unwrap();
    assert!(!text.contains("\"metrics\"") && !text.contains("\"digest\""));
    std::fs::write(&art_path, text).expect("write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", art_path.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("regenerated report matches"), "stderr: {err}");

    // A bare training report: explanatory message, not a parse panic.
    let report_path = dir.join("report.json");
    std::fs::write(&report_path, serde_json::to_string_pretty(&report).unwrap()).expect("write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", report_path.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bare training report"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_cli_verifies_the_stored_report_on_artifacts() {
    // Tracing a sweep-written artifact re-runs its request, prints the
    // summary `tifl run` prints, and checks the regenerated report's
    // digest chain against the stored one.
    let dir = tmp_dir("trace-verify");
    let mut builder = SweepBuilder::new(ExperimentConfig::tiny(51));
    builder.rounds(2).workers(1).out(&dir);
    assert_eq!(builder.run().completed(), 1);
    let store = RunStore::open(&dir).expect("store opens");
    let path = store.path_of(store.keys()[0]);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", path.to_str().unwrap()])
        .output()
        .expect("tifl runs");
    let (text, err) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("regenerated report matches"), "stderr: {err}");
    assert!(
        text.contains("vanilla: 2 rounds, ") && text.contains("wire: "),
        "stdout: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifacts_with_stored_metrics_and_label_load_validate_audit_and_trace() {
    // Stores written before artifacts dropped their derived copies carry
    // a `label` and a `metrics` member. The deserializer skips members
    // it does not know, so such an artifact is an ordinary one.
    let dir = tmp_dir("legacy-members");
    let mut builder = SweepBuilder::new(ExperimentConfig::tiny(53));
    builder.rounds(3).workers(1).out(&dir);
    assert_eq!(builder.run().completed(), 1);
    let store = RunStore::open(&dir).expect("store opens");
    let key = store.keys()[0];
    let fresh = store.load_checked(key).expect("fresh artifact loads");

    let text = std::fs::read_to_string(store.path_of(key)).expect("read");
    let mut value: serde::Value = serde_json::from_str(&text).expect("parses");
    let serde::Value::Object(fields) = &mut value else {
        panic!("an artifact is a JSON object");
    };
    assert!(
        fields
            .iter()
            .all(|(name, _)| name != "label" && name != "metrics"),
        "a fresh artifact stores neither copy"
    );
    let member = |json: &str| serde_json::from_str::<serde::Value>(json).expect("member parses");
    let label = member(&format!("{:?}", fresh.report.policy));
    let metrics = member(
        r#"{"counters": [{"name": "profile_passes", "value": 0},
                         {"name": "rounds", "value": 3},
                         {"name": "folds", "value": 9}],
            "gauges": [{"name": "virtual_time_sec", "value": 42.5}],
            "histograms": [{"name": "round_latency_sec", "bounds": [1.0, 5.0],
                            "counts": [0, 1, 2], "total": 3, "sum": 42.5}]}"#,
    );
    fields.insert(1, ("label".to_string(), label));
    let report_at = fields
        .iter()
        .position(|(name, _)| name == "report")
        .expect("a report member");
    fields.insert(report_at + 1, ("metrics".to_string(), metrics));
    std::fs::write(
        store.path_of(key),
        serde_json::to_string_pretty(&value).expect("renders"),
    )
    .expect("rewrite");

    assert_eq!(store.load_checked(key).expect("loads"), fresh);
    assert_eq!(
        store
            .validate_checked(key, &fresh.request)
            .expect("validates for resume"),
        fresh
    );
    let audit = audit_store(&store);
    assert!(audit.is_clean(), "{}", audit.render_text());
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", store.path_of(key).to_str().unwrap()])
        .output()
        .expect("tifl runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    assert!(err.contains("regenerated report matches"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_cli_host_flag_exports_the_virtual_and_the_host_lane() {
    // `tifl trace --host`: one Chrome trace-event array, the virtual
    // lane as pid 1 and the host lane as pid 2, the latter all spans
    // under `host:` categories.
    let dir = tmp_dir("trace-host");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let request = RunRequest {
        experiment: ExperimentConfig::tiny(52),
        rounds: Some(6),
        seed: None,
        clients_per_round: None,
        spec: RunSpec::default(),
    };
    let (run, trace) = (dir.join("run.json"), dir.join("trace_host.json"));
    std::fs::write(&run, serde_json::to_string(&request).unwrap()).expect("write request");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tifl"))
        .args(["trace", run.to_str().unwrap(), "--host", "--out"])
        .arg(&trace)
        .output()
        .expect("tifl runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("virtual + host lanes"), "stdout: {stdout}");

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let serde::Value::Array(events) = serde_json::from_str(&text).expect("valid JSON") else {
        panic!("a Chrome trace is a JSON array");
    };
    // (pid, ph, cat) of every event.
    let rows: Vec<(String, String, String)> = events
        .iter()
        .map(|event| {
            let serde::Value::Object(fields) = event else {
                panic!("an event is an object: {event:?}");
            };
            let field = |name: &str| {
                let (_, value) = fields.iter().find(|(k, _)| k == name).expect(name);
                match value {
                    serde::Value::String(s) => s.clone(),
                    other => serde_json::to_string(other).expect("a scalar"),
                }
            };
            (field("pid"), field("ph"), field("cat"))
        })
        .collect();
    let mut pids: Vec<&str> = rows.iter().map(|(pid, ..)| pid.as_str()).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids, ["1", "2"], "virtual lane is pid 1, host lane pid 2");
    let host: Vec<_> = rows.iter().filter(|(pid, ..)| pid == "2").collect();
    assert!(
        host.iter().all(|(_, ph, _)| ph == "X"),
        "host lane is spans"
    );
    assert!(
        host.iter().all(|(.., cat)| cat.starts_with("host:")),
        "host categories: {host:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
