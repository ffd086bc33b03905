//! `durability`: prices the WAL's fsync policies on real hardware,
//! times crash recovery, and re-proves the crash-sweep invariants in
//! release mode, written to `BENCH_durability.json`.
//!
//! Gates:
//!
//! 1. **Zero lost acked writes / zero half-applied batches** across an
//!    exhaustive byte-offset crash sweep on the simulated medium.
//! 2. **Deterministic recovery** — same crash offset, byte-identical
//!    recovered store, at every sampled offset.
//! 3. **Recovery wall time** under 10 s for a 2 000-op log on real files.
//! 4. **Durable write throughput** — the group-commit file-backed WAL must
//!    sustain at least the calibrated simulated-disk insert rate
//!    (1e6 / `db_insert_us` ≈ 91 inserts/s): real durability is not
//!    allowed to be slower than the 2005 disk the paper measured.
//! 5. **Virtual-time invariance** — a fixed workload charges the identical
//!    virtual duration under SimDisk and under the durable backend, so
//!    every virtual-time figure in the repo is bit-identical with
//!    durability enabled or disabled.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ogsa_core::sim::CostModel;
use ogsa_core::xmldb::wal::WalOp;
use ogsa_core::xmldb::{BackendKind, CrashPoint, DurableBackend, DurableConfig, FsyncPolicy};

use crate::fixtures::{
    doc, free_db, per_write_backend, prefix_images, put, puts, run_ops, virtual_elapsed, COLL,
};
use crate::{json_array, write_artifact, Gates};

/// The sweep workload: singles, a batch, an update, a delete.
fn sweep_ops() -> Vec<WalOp> {
    let mut ops = puts(0, 5);
    ops.push(WalOp::PutBatch {
        collection: COLL.to_owned(),
        entries: (0..6).map(|i| (format!("b{i}"), doc(100 + i))).collect(),
    });
    ops.push(put("k2".to_owned(), 22));
    ops.push(WalOp::Delete {
        collection: COLL.to_owned(),
        key: "k4".to_owned(),
    });
    ops
}

struct SweepResult {
    crash_points: u64,
    lost_acked: u64,
    half_applied: u64,
    determinism_samples: u64,
    deterministic: bool,
}

fn crash_once(at: u64) -> (u64, Vec<u8>) {
    let backend = per_write_backend();
    backend.sim_medium().unwrap().arm(CrashPoint::AtByte(at));
    run_ops(&free_db(backend.clone()), &sweep_ops());
    let acked = backend.acked_ops();
    backend.recover();
    (acked, backend.encoded_image())
}

fn crash_sweep() -> SweepResult {
    let images = prefix_images(&sweep_ops());
    // Clean run sizes the log.
    let backend = per_write_backend();
    run_ops(&free_db(backend.clone()), &sweep_ops());
    let total = backend.wal_len();

    let mut lost_acked = 0u64;
    let mut half_applied = 0u64;
    let mut determinism_samples = 0u64;
    let mut deterministic = true;
    for at in 0..=total {
        let (acked, image) = crash_once(at);
        match images.iter().rposition(|img| *img == image) {
            Some(j) if (j as u64) < acked => lost_acked += 1,
            // `rposition` hit means the image is a whole-op prefix: a
            // half-applied batch can never equal one.
            Some(_) => {}
            None => half_applied += 1,
        }
        if at % 13 == 0 {
            determinism_samples += 1;
            let (_, again) = crash_once(at);
            deterministic &= image == again;
        }
    }
    SweepResult {
        crash_points: total + 1,
        lost_acked,
        half_applied,
        determinism_samples,
        deterministic,
    }
}

struct PolicyRow {
    label: &'static str,
    policy: FsyncPolicy,
    ops: usize,
    wall_ms: f64,
    rps: f64,
}

fn bench_policy(
    dir: &std::path::Path,
    label: &'static str,
    policy: FsyncPolicy,
    ops: usize,
) -> PolicyRow {
    let sub = dir.join(label);
    let _ = std::fs::remove_dir_all(&sub);
    let backend = Arc::new(
        DurableBackend::file(
            &sub,
            DurableConfig {
                fsync: policy,
                snapshot_every: 0,
            },
        )
        .expect("create bench wal dir"),
    );
    let db = free_db(backend.clone());
    let writes = puts(0, ops);
    let start = Instant::now();
    run_ops(&db, &writes);
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&sub);
    let wall_ms = wall.as_secs_f64() * 1e3;
    PolicyRow {
        label,
        policy,
        ops,
        wall_ms,
        rps: ops as f64 / wall.as_secs_f64().max(1e-9),
    }
}

fn recovery_time(dir: &std::path::Path, ops: usize) -> (usize, f64) {
    let sub = dir.join("recovery");
    let _ = std::fs::remove_dir_all(&sub);
    let cfg = DurableConfig {
        fsync: FsyncPolicy::GroupCommit(64),
        snapshot_every: 0,
    };
    {
        let backend = Arc::new(DurableBackend::file(&sub, cfg).expect("create recovery dir"));
        run_ops(&free_db(backend.clone()), &puts(0, ops));
    }
    // A brand-new process-equivalent: reopen and replay the whole log.
    let backend = Arc::new(DurableBackend::file(&sub, cfg).expect("reopen recovery dir"));
    let start = Instant::now();
    let report = backend.recover();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&sub);
    (report.wal_records_replayed, wall_ms)
}

pub fn run(out_dir: &str) -> ExitCode {
    let tmp = std::env::temp_dir().join(format!("ogsa-durability-bench-{}", std::process::id()));

    // 1+2: the crash sweep and determinism gates.
    let sweep = crash_sweep();

    // 3: recovery wall time on real files.
    let recovery_ops = 2_000;
    let (replayed, recovery_ms) = recovery_time(&tmp, recovery_ops);

    // 4: fsync policies on real files vs the calibrated simulated disk.
    let model = CostModel::calibrated_2005();
    let simdisk_rps = 1e6 / model.db_insert_us as f64;
    let rows = vec![
        bench_policy(&tmp, "per_write", FsyncPolicy::PerWrite, 300),
        bench_policy(&tmp, "group_commit_8", FsyncPolicy::GroupCommit(8), 1_000),
        bench_policy(&tmp, "never", FsyncPolicy::Never, 1_000),
    ];

    // 5: virtual time must not notice the durable backend.
    let vt_simdisk = virtual_elapsed(BackendKind::SimDisk);
    let vt_durable = virtual_elapsed(BackendKind::Custom(Arc::new(DurableBackend::sim(
        DurableConfig::default(),
    ))));
    let _ = std::fs::remove_dir_all(&tmp);

    println!(
        "crash sweep: {} points, {} lost acked, {} half-applied, deterministic at {} samples: {}",
        sweep.crash_points,
        sweep.lost_acked,
        sweep.half_applied,
        sweep.determinism_samples,
        sweep.deterministic
    );
    println!("recovery: {replayed} records replayed in {recovery_ms:.1} ms");
    println!(
        "virtual time: simdisk {vt_simdisk} µs vs durable {vt_durable} µs (must be identical)"
    );
    println!(
        "{:<16} {:>8} {:>10} {:>10}   (simdisk implied: {:.1} rps)",
        "policy", "ops", "wall ms", "rps", simdisk_rps
    );
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>10.1} {:>10.1}",
            r.label, r.ops, r.wall_ms, r.rps
        );
    }

    let group_commit_rps = rows
        .iter()
        .find(|r| matches!(r.policy, FsyncPolicy::GroupCommit(_)))
        .map(|r| r.rps)
        .unwrap_or(0.0);
    let mut gates = Gates::new("durability gates");
    gates
        .check("zero_lost_acked_writes", sweep.lost_acked == 0)
        .check("zero_half_applied_batches", sweep.half_applied == 0)
        .check("deterministic_recovery", sweep.deterministic)
        .check(
            "recovery_under_10s",
            replayed == recovery_ops && recovery_ms < 10_000.0,
        )
        .check(
            "group_commit_beats_simulated_disk",
            group_commit_rps >= simdisk_rps,
        )
        .check("virtual_time_identical", vt_simdisk == vt_durable);

    let rows_json = json_array(&rows, |r| {
        format!(
            "{{\"policy\":\"{}\",\"ops\":{},\"wall_ms\":{:.3},\"rps\":{:.1}}}",
            r.label, r.ops, r.wall_ms, r.rps
        )
    });
    let json = format!(
        concat!(
            "{{\"benchmark\":\"durability\",",
            "\"sweep\":{{\"crash_points\":{},\"lost_acked\":{},\"half_applied_batches\":{},",
            "\"determinism_samples\":{},\"deterministic\":{}}},",
            "\"recovery\":{{\"ops\":{},\"replayed\":{},\"wall_ms\":{:.3}}},",
            "\"virtual_time\":{{\"simdisk_us\":{},\"durable_us\":{}}},",
            "\"simdisk_implied_rps\":{:.1},",
            "\"throughput\":{},",
            "{}}}\n"
        ),
        sweep.crash_points,
        sweep.lost_acked,
        sweep.half_applied,
        sweep.determinism_samples,
        sweep.deterministic,
        recovery_ops,
        replayed,
        recovery_ms,
        vt_simdisk,
        vt_durable,
        simdisk_rps,
        rows_json,
        gates.json()
    );
    write_artifact(out_dir, "BENCH_durability.json", &json);
    gates.finish()
}
