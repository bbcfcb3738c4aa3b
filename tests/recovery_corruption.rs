//! Journal corruption tolerance, property-tested.
//!
//! The contract of `pslocal::core::recovery`: resuming from a journal
//! that was bit-flipped, truncated, or replaced with garbage **never
//! panics and never corrupts the output** — the replay falls back to
//! the longest valid prefix (possibly none) and re-runs everything
//! after it, so the final outcome is always byte-identical to an
//! uninterrupted run. Corruption can only ever cost *progress*, never
//! correctness.

use proptest::prelude::*;
use pslocal::core::{
    reduce_cf_to_maxis, reduce_cf_to_maxis_resumable, Checkpointing, PhaseJournal, ReductionConfig,
    ReductionOutcome,
};
use pslocal::graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal::graph::Hypergraph;
use pslocal::maxis::PrecisionOracle;
use pslocal::telemetry::Telemetry;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A fresh, collision-free checkpoint directory per proptest case.
fn ckpt_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pslocal-corruption-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Fixture {
    h: Hypergraph,
    baseline: ReductionOutcome,
    /// The complete, uncorrupted journal of the baseline run.
    pristine: Vec<u8>,
}

/// One checkpointed multi-phase run, shared by every proptest case —
/// corruption is applied to *copies* of its journal. λ = 4 keeps the
/// run multi-phase, so the journal holds several records to damage.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let k = 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let h = planted_cf_instance(&mut rng, PlantedCfParams::new(40, 18, k)).hypergraph;
        let oracle = PrecisionOracle::new(4.0);
        let dir = ckpt_dir("fixture");
        let (baseline, _) = reduce_cf_to_maxis_resumable(
            &h,
            &oracle,
            ReductionConfig::new(k),
            &Checkpointing::new(&dir),
            &Telemetry::disabled(),
        )
        .expect("clean checkpointed run succeeds");
        assert!(baseline.phases_used >= 2, "fixture must be multi-phase");
        let pristine = std::fs::read(PhaseJournal::file_path(&dir)).expect("journal exists");
        let _ = std::fs::remove_dir_all(&dir);
        let check = reduce_cf_to_maxis(&h, &oracle, ReductionConfig::new(k)).unwrap();
        assert_eq!(check.records, baseline.records, "checkpointing must not change output");
        Fixture { h, baseline, pristine }
    })
}

/// Writes `journal` into a fresh checkpoint dir and resumes from it.
/// The resume itself must succeed — corruption is tolerated, never an
/// error — and produce the baseline outcome. It must also leave the
/// journal an uninterrupted run writes, and report that journal's size.
fn resume_from(tag: &str, journal: &[u8]) {
    let fx = fixture();
    let dir = ckpt_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(PhaseJournal::file_path(&dir), journal).unwrap();
    let (out, report) = reduce_cf_to_maxis_resumable(
        &fx.h,
        &PrecisionOracle::new(4.0),
        ReductionConfig::new(3),
        &Checkpointing::new(&dir).resuming(),
        &Telemetry::disabled(),
    )
    .expect("corruption must be tolerated, not fatal");
    assert!(report.resumed);
    assert!(
        report.phases_recovered <= fx.baseline.phases_used,
        "cannot recover more phases than were ever run"
    );
    assert_eq!(out.records, fx.baseline.records, "corruption must never change the output");
    assert_eq!(out.coloring, fx.baseline.coloring);
    assert_eq!(out.total_colors, fx.baseline.total_colors);
    let on_disk = std::fs::read(PhaseJournal::file_path(&dir)).expect("journal exists");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(on_disk == fx.pristine, "the resumed journal must equal the uninterrupted one");
    assert_eq!(report.journal_bytes, on_disk.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_bit_flip_is_survived(pos in 0usize..10_000, bit in 0u8..8) {
        let fx = fixture();
        let mut bytes = fx.pristine.clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        resume_from("bitflip", &bytes);
    }

    #[test]
    fn any_truncation_is_survived(cut in 0usize..10_000) {
        let fx = fixture();
        let cut = cut % (fx.pristine.len() + 1);
        resume_from("truncate", &fx.pristine[..cut]);
    }

    #[test]
    fn multi_byte_scribbles_are_survived(
        start in 0usize..10_000,
        len in 1usize..64,
        fill in 0u8..=255,
    ) {
        let fx = fixture();
        let mut bytes = fx.pristine.clone();
        let n = bytes.len();
        for i in 0..len {
            let p = (start + i) % n;
            bytes[p] = fill;
        }
        resume_from("scribble", &bytes);
    }

    #[test]
    fn garbage_after_a_complete_journal_is_cut(seed in 0u64..5000, len in 1usize..=64) {
        let fx = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut bytes = fx.pristine.clone();
        bytes.extend((0..len).map(|_| rand::Rng::gen_range(&mut rng, 0..=255u8)));
        resume_from("tail", &bytes);
    }

    #[test]
    fn pure_garbage_journals_are_survived(seed in 0u64..5000, len in 0usize..512) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let garbage: Vec<u8> = (0..len).map(|_| rand::Rng::gen_range(&mut rng, 0..=255u8)).collect();
        resume_from("garbage", &garbage);
    }
}
