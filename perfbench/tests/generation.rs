//! Properties of the generated inputs and of the output checks.

use std::collections::HashSet;

use lc_driver::Driver;
use lc_perfbench::check::{check_analyze, check_compiled, essential, returned_source};
use lc_perfbench::gen::{
    cold_plan, cold_source, cold_warmup_source, digest, exec_nests, exec_op, Kind, Mixed,
    COLD_BLOCK, COLD_LOG2_CELLS, COLD_STRATA, EXEC_NESTS, HELD_OUT_SEED, POLICIES, POOL_SIZE,
};
use lc_perfbench::WORKLOADS;

#[test]
fn same_seed_gives_a_byte_identical_request_list() {
    for workload in WORKLOADS {
        assert_eq!(digest(workload, 7), digest(workload, 7), "{workload}");
        assert_ne!(digest(workload, 7), digest(workload, 8), "{workload}");
        assert_ne!(
            digest(workload, 7),
            digest(workload, HELD_OUT_SEED),
            "{workload}"
        );
    }
    let (a, b) = (Mixed::new(3), Mixed::new(3));
    assert_eq!(a.pool, b.pool);
    assert!((0..2000).all(|r| a.request(r) == b.request(r)));
    assert!((0..500).all(|r| cold_source(3, r) == cold_source(3, r)));
    assert_eq!(exec_nests(3), exec_nests(3));
}

#[test]
fn compile_cold_never_repeats_a_source() {
    for seed in [1, HELD_OUT_SEED] {
        let mut seen = HashSet::new();
        for r in 0..8192 {
            assert!(seen.insert(cold_source(seed, r)), "request {r} repeats");
        }
        for k in 0..32 {
            assert!(
                seen.insert(cold_warmup_source(seed, k)),
                "warm-up {k} repeats"
            );
        }
    }
}

#[test]
fn compile_cold_blocks_cover_every_shape_and_size() {
    let (lo, hi) = COLD_LOG2_CELLS;
    for block in 0..4 {
        let pairs: HashSet<(String, u64)> = (block * COLD_BLOCK..(block + 1) * COLD_BLOCK)
            .map(|r| {
                let (shape, log2) = cold_plan(9, r);
                assert!((lo..hi).contains(&log2));
                let stratum = ((log2 - lo) / (hi - lo) * COLD_STRATA as f64) as u64;
                (format!("{shape:?}"), stratum)
            })
            .collect();
        assert_eq!(pairs.len() as u64, COLD_BLOCK, "block {block}");
    }
}

#[test]
fn every_generated_program_compiles_and_checks_out() {
    let driver = Driver::default();
    let mixed = Mixed::new(11);
    let sources = (0..64)
        .map(|r| cold_source(11, r))
        .filter(|s| s.len() < 400)
        .chain(mixed.pool.iter().take(64).cloned());
    for src in sources {
        let out = driver
            .compile(&src)
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        check_compiled(&src, &out.transformed_source).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }
}

#[test]
fn serve_mixed_pool_is_distinct_and_skewed() {
    let mixed = Mixed::new(2);
    let distinct: HashSet<&String> = mixed.pool.iter().collect();
    assert_eq!(distinct.len(), POOL_SIZE);
    let mut counts = vec![0u32; POOL_SIZE];
    let mut analyze = 0;
    for r in 0..20_000 {
        let req = mixed.request(r);
        counts[req.item] += 1;
        analyze += (req.kind == Kind::Analyze) as u32;
    }
    let hottest = mixed.by_rank[0];
    assert!(counts[hottest] > 1000, "rank 0 draws {}", counts[hottest]);
    assert!((3000..5000).contains(&analyze), "analyze share {analyze}");
}

#[test]
fn exec_ops_cycle_through_every_nest_and_policy() {
    let pairs = EXEC_NESTS * POLICIES.len();
    let seen: HashSet<(usize, usize)> = (0..pairs as u64).map(|r| exec_op(4, r)).collect();
    assert_eq!(seen.len(), pairs);
    let driver = Driver::default();
    for spec in exec_nests(4) {
        let out = driver.compile(&spec.source).expect("nest compiles");
        assert_eq!(out.coalesced[0].dims, vec![spec.n as u64, spec.m as u64]);
    }
}

#[test]
fn checks_reject_wrong_answers() {
    let src =
        "array A[4][5];\ndoall i = 1..4 {\n  doall j = 1..5 {\n    A[i][j] = i * 3 + j;\n  }\n}\n";
    let out = Driver::default().compile(src).unwrap();
    check_compiled(src, &out.transformed_source).unwrap();
    let wrong = out.transformed_source.replace("* 3", "* 4");
    assert_ne!(wrong, out.transformed_source);
    assert!(check_compiled(src, &wrong).is_err());

    let racy = "array A[8];\ndoall i = 2..8 {\n  A[i] = A[i - 1];\n}\n";
    let findings = lc_lint::lint_source(racy, &lc_lint::LintSet::default()).unwrap();
    let body = lc_driver::json::Json::obj(vec![
        ("ok", lc_driver::json::Json::Bool(true)),
        (
            "findings",
            lc_driver::json::Json::Arr(
                findings
                    .iter()
                    .map(lc_driver::trace::finding_to_json)
                    .collect(),
            ),
        ),
        ("denied", lc_driver::json::Json::Int(0)),
    ])
    .to_string();
    check_analyze(racy, body.as_bytes()).unwrap();
    assert!(check_analyze(src, body.as_bytes()).is_err());
}

#[test]
fn essential_keeps_just_the_returned_source() {
    let body = br#"{"ok":true,"source":"a \"quoted\" \\ line\n","coalesced_nests":1,"trace":{}}"#;
    let kept = essential(true, body.to_vec());
    assert_eq!(kept, br#""a \"quoted\" \\ line\n""#.to_vec());
    assert_eq!(returned_source(&kept).unwrap(), "a \"quoted\" \\ line\n");
    // Another shape is kept whole and still understood.
    let other = br#"{"source":"x","ok":true}"#.to_vec();
    assert_eq!(essential(true, other.clone()), other);
    assert_eq!(returned_source(&other).unwrap(), "x");
}
