//! Dumps the full analysis-report corpus (13 programs x raw/kernel) as one
//! JSON file per report, for before/after bit-identity comparison.

use jskernel::analyze::corpus::{run_program, CorpusMode};
use jskernel::attacks::corpus_names;
use jskernel::core::policy::deterministic_policy;

fn main() {
    let dir = std::env::args().nth(1).expect("usage: dump_reports <dir>");
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = CorpusMode::Kernel(deterministic_policy());
    for name in corpus_names() {
        for (label, mode) in [("raw", &CorpusMode::Raw), ("kernel", &kernel)] {
            let json = run_program(&name, mode, 7).to_json();
            std::fs::write(format!("{dir}/{name}-{label}.json"), json).unwrap();
        }
    }
    println!("wrote 26 reports to {dir}");
}
