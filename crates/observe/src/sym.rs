//! Interned names.
//!
//! A [`Sym`] is a copyable `u32` standing for a string, so hot paths pass
//! and compare integers instead of strings. Two tables issue them:
//!
//! * **Observer names** (spans, counters, gauges, histograms) are ids in
//!   the process-wide series table ([`crate::intern`]): the kernel and the
//!   browser take their names once per process and pass the `Sym` on every
//!   hook call, so neither attaching an observer nor a hook hashes a
//!   string, and the observer's metric rows are keyed by the ids.
//! * **Trace strings** (the browser trace's URLs, worker sources and
//!   labels) go through an [`Interner`] the trace owns (re-exported as
//!   `jsk_browser::trace::Interner`). It lives here so the observability
//!   layer sits *below* the browser in the crate graph.
//!
//! A symbol is only meaningful together with the table that issued it.
//! An [`Interner`] keeps one shared copy of each new string for both its
//! table and its lookup index. It hands symbols out in first-intern
//! order, which is itself deterministic (identical trace record sequences
//! intern identical strings), so serialized traces keyed by symbol index
//! are bit-identical across runs and `JSK_JOBS` settings.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// An interned name: a cheap, copyable index into the table that issued
/// it. Serializes as its raw index; the table travels alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(u32);

impl Sym {
    /// The symbol with raw index `index`.
    pub(crate) const fn from_index(index: u32) -> Sym {
        Sym(index)
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// First-occurrence string interner: `intern` returns a stable [`Sym`] per
/// distinct string; `resolve` maps it back. The table and the lookup index
/// share one reference-counted copy of each string.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    /// A new name is copied once, into storage the table and the index
    /// share.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&i) = self.index.get(s) {
            return Sym(i);
        }
        let i = u32::try_from(self.strings.len()).expect("interner overflow");
        let stored: Arc<str> = Arc::from(s);
        self.strings.push(stored.clone());
        self.index.insert(stored, i);
        Sym(i)
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner (index out of
    /// range). A foreign symbol with an in-range index resolves to the
    /// wrong string.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Two interners are equal when their tables match; the lookup index is
/// derived state.
impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.strings == other.strings
    }
}

/// Serializes as the bare string table (the index is rebuilt on read).
impl Serialize for Interner {
    fn to_value(&self) -> Value {
        let table: Vec<&str> = self.strings.iter().map(AsRef::as_ref).collect();
        table.to_value()
    }
}

impl Deserialize for Interner {
    fn from_value(v: &Value) -> Result<Interner, DeError> {
        let strings: Vec<Arc<str>> = Vec::<String>::from_value(v)?
            .into_iter()
            .map(Arc::from)
            .collect();
        let index = strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), u32::try_from(i).expect("interner overflow")))
            .collect();
        Ok(Interner { strings, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_first_occurrence_ordered() {
        let mut i = Interner::new();
        let a = i.intern("kernel.dispatch");
        let b = i.intern("policy.decide");
        assert_eq!(a, i.intern("kernel.dispatch"));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.resolve(b), "policy.decide");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn a_new_string_is_stored_once_for_table_and_index() {
        let mut i = Interner::new();
        let url = i.intern(&String::from("https://victim.example/api"));
        assert_eq!(i.intern("https://victim.example/api"), url);
        let stored = &i.strings[url.index() as usize];
        assert_eq!(Arc::strong_count(stored), 2, "one copy, shared");
        let (key, _) = i.index.get_key_value("https://victim.example/api").unwrap();
        assert!(Arc::ptr_eq(key, stored));
    }

    #[test]
    fn literal_and_runtime_names_share_symbols_and_the_serialized_table() {
        let mut i = Interner::new();
        let dispatch = i.intern("kernel.dispatch");
        let url = i.intern(&String::from("https://victim.example/api"));
        let runtime = String::from("kernel.dispatch");
        assert_eq!(i.intern(&runtime), dispatch);
        assert_eq!(i.intern("https://victim.example/api"), url);
        assert_eq!(i.resolve(url), "https://victim.example/api");

        let json = serde_json::to_string(&i).expect("serializes");
        assert_eq!(
            json, r#"["kernel.dispatch","https://victim.example/api"]"#,
            "the serialized form is the bare string table"
        );
        let mut back: Interner = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, i);
        assert_eq!(serde_json::to_string(&back).expect("serializes"), json);
        assert_eq!(back.intern("kernel.dispatch"), dispatch);
        assert_eq!(back.intern(&runtime), dispatch);
        assert_eq!(back.intern("policy.decide").index(), 2);
    }
}
