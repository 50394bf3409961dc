//! The three workloads and their seeded request generators.
//!
//! A generator yields one request at a time: the sites a client submits
//! before its next `flush`. Inputs are a pure function of
//! `(--seed, client index)`. Site labels come from bounded sets (the 13
//! corpus names, or 64 rotating tiny labels), because the server keeps a
//! cumulative `{site,policy}{shard}` series per distinct label and unique
//! labels would make late requests dearer than early ones.

use jsk_serve::protocol::Request;
use jsk_serve::Submission;
use jsk_workloads::schedule::{corpus_schedules, Schedule};

/// Sites per `corpus-batch` flush.
pub const CORPUS_BATCH: usize = 8;
/// Distinct site labels the tiny workloads rotate through.
pub const TINY_LABELS: usize = 64;
/// The policy every workload submits under.
pub const POLICY: &str = "kernel";

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13 Table-1 programs, 8 per flush on a persistent connection.
    CorpusBatch,
    /// One empty schedule per flush on a persistent connection.
    TinyFlush,
    /// One empty schedule per fresh TCP connection.
    ConnectChurn,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "corpus-batch" => Some(Workload::CorpusBatch),
            "tiny-flush" => Some(Workload::TinyFlush),
            "connect-churn" => Some(Workload::ConnectChurn),
            _ => None,
        }
    }

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusBatch => "corpus-batch",
            Workload::TinyFlush => "tiny-flush",
            Workload::ConnectChurn => "connect-churn",
        }
    }

    /// Whether each client keeps one connection for the whole run.
    pub fn persistent(self) -> bool {
        self != Workload::ConnectChurn
    }
}

/// SplitMix64: small, seedable, and good enough to pick inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One site of a request: which program, under which label, with which
/// run seed.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    pub program: usize,
    pub label: usize,
    pub seed: u64,
}

/// The programs and labels a workload draws from.
pub struct Catalog {
    pub workload: Workload,
    schedules: Vec<Schedule>,
    labels: Vec<String>,
}

impl Catalog {
    pub fn new(workload: Workload) -> Catalog {
        let (schedules, labels) = match workload {
            Workload::CorpusBatch => {
                let corpus = corpus_schedules();
                let labels = corpus.iter().map(|s| s.name.clone()).collect();
                (corpus, labels)
            }
            Workload::TinyFlush | Workload::ConnectChurn => {
                let tiny = Schedule {
                    name: "tiny".to_owned(),
                    private_mode: false,
                    run_ms: 1,
                    resources: Vec::new(),
                    events: Vec::new(),
                };
                let labels = (0..TINY_LABELS).map(|i| format!("tiny-{i:02}")).collect();
                (vec![tiny], labels)
            }
        };
        Catalog {
            workload,
            schedules,
            labels,
        }
    }

    /// The site's label.
    pub fn label(&self, site: &Site) -> &str {
        &self.labels[site.label]
    }

    /// The site as a typed protocol request.
    pub fn request(&self, site: &Site) -> Request {
        let sub = self.submission(site);
        Request::SubmitSite {
            site: sub.site,
            seed: sub.seed,
            policy: sub.policy,
            schedule: sub.schedule,
            deadline_ms: sub.deadline_ms,
        }
    }

    /// The site as the submission a direct pool caller would build.
    pub fn submission(&self, site: &Site) -> Submission {
        Submission {
            site: self.labels[site.label].clone(),
            seed: site.seed,
            policy: POLICY.to_owned(),
            schedule: self.schedules[site.program].clone(),
            deadline_ms: 0,
        }
    }
}

/// One client's request stream.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    order: Vec<usize>,
    cursor: usize,
}

impl Generator {
    /// The generator of client `client` under run seed `seed`.
    pub fn new(cat: &Catalog, seed: u64, client: u64) -> Generator {
        let mut rng = Rng::new(seed ^ (client + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let n = cat.labels.len();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let cursor = rng.below(n);
        Generator {
            workload: cat.workload,
            rng,
            order,
            cursor,
        }
    }

    /// The sites of the next request. Corpus sites walk a seeded
    /// permutation of the 13 programs, 8 at a time, so every batch holds
    /// 8 distinct programs and all 13 recur evenly; tiny sites rotate
    /// through the 64 labels. Every site gets a fresh run seed, so no
    /// input repeats and nothing can be cached.
    pub fn next_request(&mut self) -> Vec<Site> {
        let per = match self.workload {
            Workload::CorpusBatch => CORPUS_BATCH,
            Workload::TinyFlush | Workload::ConnectChurn => 1,
        };
        (0..per)
            .map(|_| {
                let label = self.order[self.cursor % self.order.len()];
                self.cursor += 1;
                let program = match self.workload {
                    Workload::CorpusBatch => label,
                    Workload::TinyFlush | Workload::ConnectChurn => 0,
                };
                Site {
                    program,
                    label,
                    seed: self.rng.next_u64(),
                }
            })
            .collect()
    }
}
