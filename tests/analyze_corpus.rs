//! The analyzer over the attack corpus — the two acceptance properties:
//!
//! * **raw** (no kernel): every one of the twelve CVE programs and the
//!   Listing 1 attack draws at least one race or attack-signature finding;
//! * **kernel** (`policies/policy_deterministic.json`): the serialized
//!   dispatcher's chain/comm edges order everything — zero races on the
//!   same corpus.

use jskernel::analyze::corpus::{run_program, CorpusMode};
use jskernel::analyze::scanner::PatternKind;
use jskernel::analyze::AnalysisReport;
use jskernel::attacks::{corpus_names, LISTING1};
use jskernel::core::policy::PolicySpec;
use jskernel::vuln::Cve;

const SEED: u64 = 7;

fn deterministic_policy_file() -> PolicySpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/policies/policy_deterministic.json"
    );
    let json = std::fs::read_to_string(path).expect("policy file readable");
    PolicySpec::from_json(&json).expect("policy file parses")
}

fn raw(name: &str) -> AnalysisReport {
    run_program(name, &CorpusMode::Raw, SEED)
}

#[test]
fn corpus_covers_table1_and_listing1() {
    let names = corpus_names();
    assert_eq!(names.len(), 13);
    for cve in Cve::all() {
        assert!(names.contains(&cve.id().to_owned()), "{}", cve.id());
    }
    assert!(names.contains(&LISTING1.to_owned()));
}

#[test]
fn raw_mode_flags_every_program() {
    for name in corpus_names() {
        let report = raw(&name);
        assert!(
            report.has_findings(),
            "{name} drew no race and no pattern finding under raw scheduling: {}",
            report.summary()
        );
    }
}

#[test]
fn kernel_deterministic_mode_is_race_free() {
    let spec = deterministic_policy_file();
    for name in corpus_names() {
        let report = run_program(&name, &CorpusMode::Kernel(spec.clone()), SEED);
        assert!(
            report.is_race_free(),
            "{name} still races under the deterministic scheduling policy: {}",
            report.to_json()
        );
        assert!(report.nodes > 0, "{name} produced an empty HB graph");
    }
}

#[test]
fn abort_to_dead_owner_races_raw_and_orders_under_kernel() {
    // CVE-2018-5092's cross-thread pair: the worker's fetch-start write vs
    // the abort delivered from the main thread's close task. Raw scheduling
    // leaves the pair unordered; the kernel's PendingChildFetch/ConfirmFetch
    // overlay plus the dispatch chain orders it.
    let name = "CVE-2018-5092";
    let report = raw(name);
    assert!(
        !report.races.is_empty(),
        "expected a request race: {}",
        report.summary()
    );
    assert!(report
        .patterns
        .iter()
        .any(|p| p.kind == PatternKind::AbortAfterOwnerDeath));
    let kernel = run_program(name, &CorpusMode::Kernel(deterministic_policy_file()), SEED);
    assert!(kernel.is_race_free(), "{}", kernel.to_json());
}

#[test]
fn listing1_raw_run_flags_the_implicit_clock() {
    let report = raw(LISTING1);
    assert!(
        report
            .patterns
            .iter()
            .any(|p| p.kind == PatternKind::ImplicitClockTicker),
        "{}",
        report.to_json()
    );
}

#[test]
fn pattern_findings_name_their_cve_family() {
    let expectations = [
        ("CVE-2014-1719", PatternKind::MidDispatchTermination),
        ("CVE-2014-1488", PatternKind::FreedTransferWindow),
        ("CVE-2013-5602", PatternKind::ClosingWorkerAssignment),
        ("CVE-2015-7215", PatternKind::ErrorLeak),
        ("CVE-2010-4576", PatternKind::StaleDocCompletion),
        ("CVE-2014-3194", PatternKind::FreedDocDelivery),
        ("CVE-2013-6646", PatternKind::CallbackAfterCloseWindow),
        ("CVE-2013-1714", PatternKind::WorkerSopBypass),
        ("CVE-2011-1190", PatternKind::SandboxOriginInheritance),
        ("CVE-2017-7843", PatternKind::PrivateModePersistence),
    ];
    for (name, kind) in expectations {
        let report = raw(name);
        let hit = report.patterns.iter().find(|p| p.kind == kind);
        let hit =
            hit.unwrap_or_else(|| panic!("{name}: expected {kind:?}, got {}", report.to_json()));
        assert!(
            hit.cve_family().contains(&name),
            "{name}: family {:?}",
            hit.cve_family()
        );
    }
}

#[test]
fn reports_serialize_deterministically() {
    let a = raw("CVE-2014-3194").to_json();
    let b = raw("CVE-2014-3194").to_json();
    assert_eq!(a, b);
    assert!(a.contains("\"races\""));
}
