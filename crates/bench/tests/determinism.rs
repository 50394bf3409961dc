//! Parallelism must not change results: a bench cell evaluated with
//! `JSK_JOBS=1` and `JSK_JOBS=8` must produce identical [`BenchRecord`]s —
//! same verdicts, same kernel-stat counters, byte-identical JSON. This is
//! the contract that lets the JSON artifacts double as regression
//! baselines regardless of the machine's core count.

use jsk_attacks::harness::run_timing_attack_observed;
use jsk_attacks::{all_timing_attacks, CacheAttack};
use jsk_bench::pool;
use jsk_bench::record::{BenchRecord, BenchReporter, CellRecord, Probe};
use jsk_defenses::registry::DefenseKind;

const COLUMNS: [DefenseKind; 3] = [
    DefenseKind::LegacyChrome,
    DefenseKind::JsKernel,
    DefenseKind::DeterFox,
];

/// Builds a miniature table1-style record with the given worker count,
/// exactly the way the bench targets do it: fan cells through the pool,
/// then assemble in index order.
fn build_record(jobs: usize, trials: usize) -> BenchRecord {
    let mut reporter = BenchReporter::new("determinism-test");
    reporter.knob("JSK_TRIALS", trials).set_jobs(jobs);
    let cells: Vec<(bool, Probe)> = pool::run_indexed(COLUMNS.len(), jobs, |i| {
        let mut probe = Probe::default();
        let result =
            run_timing_attack_observed(&CacheAttack, COLUMNS[i], trials, 0xA77AC4, &mut |b| {
                probe.observe(b);
            });
        (result.defended(), probe)
    });
    for (i, (defended, probe)) in cells.iter().enumerate() {
        reporter.cell(CellRecord::verdict(
            "Cache Attack",
            COLUMNS[i].label(),
            *defended,
        ));
        reporter.absorb(probe);
    }
    reporter.into_run().record
}

#[test]
fn parallel_record_is_bit_identical_to_serial() {
    let serial = build_record(1, 3);
    let parallel = build_record(8, 3);
    assert_eq!(
        serial, parallel,
        "JSK_JOBS=8 must reproduce JSK_JOBS=1 exactly"
    );
    // The deterministic record file must match byte-for-byte.
    let a = serde_json::to_string_pretty(&serial).unwrap();
    let b = serde_json::to_string_pretty(&parallel).unwrap();
    assert_eq!(a, b);
    // And it must actually contain work: verdicts and kernel counters.
    assert_eq!(serial.verdict_count(), COLUMNS.len());
    assert!(serial.probe.steps > 0);
    assert!(
        serial.probe.stats.total_events() > 0,
        "the JSKernel column must contribute kernel stats: {:?}",
        serial.probe.stats
    );
}

#[test]
fn repeated_serial_runs_are_stable() {
    // Guards the premise of the whole scheme: the simulation itself is
    // deterministic for fixed seeds, independent of wall-clock.
    assert_eq!(build_record(1, 2), build_record(1, 2));
}

/// Analysis reports for the whole corpus (raw + deterministic-kernel mode
/// per program), fanned through the pool at the given width.
fn corpus_reports(jobs: usize) -> Vec<String> {
    use jsk_analyze::corpus::{run_program, CorpusMode};
    use jsk_attacks::corpus_names;
    use jsk_core::policy::deterministic_policy;

    let names = corpus_names();
    let kernel = CorpusMode::Kernel(deterministic_policy());
    let modes: Vec<(String, CorpusMode)> = names
        .iter()
        .flat_map(|n| [(n.clone(), CorpusMode::Raw), (n.clone(), kernel.clone())])
        .collect();
    pool::run_indexed(modes.len(), jobs, |i| {
        let (name, mode) = &modes[i];
        run_program(name, mode, 7).to_json()
    })
}

#[test]
fn analysis_reports_are_bit_identical_under_pool() {
    // The analyzer rides the same contract as the bench records: the race
    // report for every corpus program must not depend on JSK_JOBS.
    let serial = corpus_reports(1);
    let parallel = corpus_reports(8);
    assert_eq!(serial, parallel, "JSK_JOBS must not change analysis output");
    assert_eq!(serial.len(), 26); // 13 programs × {raw, kernel}
    assert!(serial.iter().any(|json| json.contains("\"races\": [\n")));
}

/// Full serialized traces — symbol table included — from kernel browsers
/// fanned through the pool. Interner symbols are assigned by first
/// occurrence in record order, so worker width must not reassign them.
fn worker_page_traces(jobs: usize) -> Vec<String> {
    pool::run_indexed(4, jobs, |i| {
        let mut browser = DefenseKind::JsKernel.build(i as u64 + 1);
        browser.boot(|scope| {
            let _w = scope.create_worker(
                "worker.js",
                jsk_browser::task::worker_script(|scope| {
                    scope.fetch(
                        "https://a.example/x",
                        None,
                        jsk_browser::task::cb(|_, _| {}),
                    );
                    scope.post_message(jsk_browser::value::JsValue::from("done"));
                }),
            );
            scope.fetch(
                "https://b.example/y",
                None,
                jsk_browser::task::cb(|_, _| {}),
            );
        });
        browser.run_until_idle();
        serde_json::to_string_pretty(browser.trace()).expect("trace serializes")
    })
}

#[test]
fn trace_symbol_tables_identical_under_pool() {
    let serial = worker_page_traces(1);
    let parallel = worker_page_traces(8);
    assert_eq!(
        serial, parallel,
        "JSK_JOBS must not change interned traces or their symbol tables"
    );
    assert!(
        serial[0].contains("worker.js") && serial[0].contains("https://a.example/x"),
        "the symbol table must travel with the trace"
    );
}

#[test]
fn fuzz_reports_are_bit_identical_under_pool() {
    // The fuzzer rides the same pool contract as everything above: a
    // whole coverage-guided run — corpus evolution, minimization, report
    // serialization — must not depend on JSK_JOBS.
    use jsk_fuzz::{run_fuzz, FuzzConfig};
    let cfg = |jobs| FuzzConfig {
        iters: 16,
        seed: 9,
        jobs,
        mutations: true,
    };
    let serial = run_fuzz(&cfg(1)).to_json();
    let parallel = run_fuzz(&cfg(8)).to_json();
    assert_eq!(serial, parallel, "JSK_JOBS must not change the fuzz report");
    assert!(
        serial.contains("\"recall\""),
        "report must carry recall data"
    );
}

/// Every designated (policy, pattern) proof row, fanned through the pool
/// at the given width and serialized. The rows are independent searches,
/// so worker count must not change a single byte.
fn prove_rows(jobs: usize) -> Vec<String> {
    use jsk_analyze::prove::{prove_policy, DEFAULT_PROVE_DEPTH};
    use jsk_core::policy::{attack_models, cve, deterministic_policy, families, PolicySpec};
    let mut policies: Vec<PolicySpec> = cve::all_cve_policies();
    policies.push(deterministic_policy());
    policies.extend(families::all_family_policies());
    let models = attack_models();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (mi, model) in models.iter().enumerate() {
        for name in model.defeated_by {
            let pi = policies
                .iter()
                .position(|p| p.name == *name)
                .expect("designated policy exists");
            pairs.push((mi, pi));
        }
    }
    pool::run_indexed(pairs.len(), jobs, |i| {
        let (mi, pi) = pairs[i];
        serde_json::to_string_pretty(&prove_policy(
            &policies[pi],
            &models[mi],
            DEFAULT_PROVE_DEPTH,
        ))
        .expect("proof row serializes")
    })
}

#[test]
fn prover_rows_are_bit_identical_under_pool() {
    let serial = prove_rows(1);
    let parallel = prove_rows(8);
    assert_eq!(serial, parallel, "JSK_JOBS must not change proof rows");
    assert_eq!(serial.len(), 15, "the full designated matrix");
    assert!(serial.iter().all(|json| json.contains("\"proved\"")));
}

/// Predictive reports for every seed schedule, fanned through the pool.
fn predict_reports(jobs: usize) -> Vec<String> {
    use jsk_analyze::predict::predict_schedule;
    use jsk_workloads::schedule::seed_schedules;
    let seeds = seed_schedules();
    pool::run_indexed(seeds.len(), jobs, |i| predict_schedule(&seeds[i]).to_json())
}

#[test]
fn predictive_reports_are_bit_identical_under_pool() {
    let serial = predict_reports(1);
    let parallel = predict_reports(8);
    assert_eq!(
        serial, parallel,
        "JSK_JOBS must not change predictive findings"
    );
    assert_eq!(serial.len(), 15);
    // And the serial pass must agree with the corpus driver's own output.
    let corpus: Vec<String> = jsk_analyze::predict::predict_corpus()
        .iter()
        .map(jsk_analyze::predict::PredictReport::to_json)
        .collect();
    assert_eq!(serial, corpus);
}

#[test]
fn timing_attack_results_identical_under_pool() {
    // The full attack-result payload (both sample vectors), not just the
    // verdict, must be schedule-invariant.
    let attacks = all_timing_attacks();
    let attack = attacks.first().expect("suite non-empty").as_ref();
    let serial = pool::run_indexed(COLUMNS.len(), 1, |i| {
        run_timing_attack_observed(attack, COLUMNS[i], 2, 7, &mut |_| {})
    });
    let parallel = pool::run_indexed(COLUMNS.len(), 8, |i| {
        run_timing_attack_observed(attack, COLUMNS[i], 2, 7, &mut |_| {})
    });
    assert_eq!(serial, parallel);
}

/// Fast-subset corpus outcomes from a sharded serve, flattened and sorted
/// so reports from different shard counts are comparable.
fn fast_corpus_outcomes(shards: usize, workers: usize) -> Vec<(String, u64, String)> {
    use jsk_shard::{corpus_job, ServeConfig, ShardPool};
    // The cheap programs only (three exploits simulate minutes of virtual
    // time; the release-profile `shards` bench target covers those).
    const FAST: [usize; 8] = [1, 2, 4, 5, 6, 8, 9, 10];
    let jobs: Vec<_> = FAST.iter().map(|&k| corpus_job(k, 5)).collect();
    let report = ShardPool::new(ServeConfig::new(shards, workers)).serve(jobs);
    let mut rows: Vec<(String, u64, String)> = report
        .shards
        .iter()
        .flat_map(|sh| {
            sh.sites.iter().map(|s| {
                (
                    s.site.clone(),
                    s.seed,
                    serde_json::to_string(&s.outcome).expect("outcome serializes"),
                )
            })
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn served_verdicts_are_shard_count_invariant() {
    // Site seeds are a pure function of the corpus index — never of shard
    // placement — so resharding a fleet (or changing `JSK_SHARDS`) must
    // not change a single served verdict or its measurement detail.
    let one = fast_corpus_outcomes(1, 1);
    let four = fast_corpus_outcomes(4, 8);
    assert_eq!(one, four, "JSK_SHARDS must not change served outcomes");
    assert_eq!(one.len(), 8);
    for (site, _, outcome) in &one {
        assert!(
            outcome.contains("\"defended\":true"),
            "{site} lost its defense: {outcome}"
        );
    }
}
