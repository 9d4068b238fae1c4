//! Acceptance tests for the chaos harness: seeded reproducibility,
//! completion under a fault storm, and catalog/DLFM agreement after
//! `reconcile()`.

use easia_bench::chaos::{run_chaos, ChaosConfig};

#[test]
fn same_seed_runs_are_bit_for_bit_identical() {
    let cfg = ChaosConfig::standard(42);
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.transcript, b.transcript);
    // And a different seed produces a different storm.
    let c = run_chaos(&ChaosConfig::standard(43));
    assert_ne!(a.digest, c.digest);
}

#[test]
fn storm_completes_all_transfers_despite_faults() {
    let r = run_chaos(&ChaosConfig::standard(42));
    assert!(r.outages >= 3, "ISSUE requires >= 3 injected outages");
    assert!(r.crashes >= 1, "ISSUE requires >= 1 file-server crash");
    assert_eq!(
        r.completed, r.total_transfers,
        "every transfer must complete despite the storm:\n{}",
        r.transcript
    );
    assert!(
        r.total_attempts as usize > r.total_transfers,
        "the storm must actually force retries:\n{}",
        r.transcript
    );
    assert!(r.goodput_bytes_per_s > 0.0);
}

#[test]
fn reconcile_restores_agreement_after_daemon_crash() {
    let r = run_chaos(&ChaosConfig::standard(42));
    // The mid-transaction crash swallowed a commit: reconcile must
    // re-establish that link from the catalog.
    assert!(
        r.recovery.relinked.iter().any(|e| e.contains("victim.dat")),
        "lost link re-established: {:?}",
        r.recovery
    );
    // The damaged RECOVERY YES file must come back from backup,
    // byte-identical.
    assert!(
        r.recovery.restored.iter().any(|e| e.contains("f0_0.dat")),
        "damaged file restored: {:?}",
        r.recovery
    );
    assert!(
        r.damaged_file_restored,
        "restored bytes must match the original"
    );
    assert!(r.recovery.unrepairable.is_empty(), "{:?}", r.recovery);
    assert!(r.recovery.skipped_down.is_empty(), "{:?}", r.recovery);
    // A second pass finds the catalog and every DLFM in agreement.
    assert!(r.post_recovery_agreement, "{}", r.transcript);
}
