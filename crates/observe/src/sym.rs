//! Interned metric/span names.
//!
//! Every span, counter, gauge, and histogram is identified by a [`Sym`]: a
//! `u32` index into an [`Interner`] owned by the observer. Instrumented
//! code interns each name **once** (at attach time) and then passes the
//! copyable `Sym` on every hook call, so the hot path never hashes a
//! string or allocates. The browser's trace string table is the same type
//! (re-exported as `jsk_browser::trace::Interner`); the interner lives
//! here so the observability layer sits *below* the browser in the crate
//! graph and can be depended on by any layer.
//!
//! Attach-time names are string literals: [`Interner::intern_static`]
//! borrows them, so attaching an observer copies no string. Names that
//! only exist at run time (the browser trace's URLs and worker sources)
//! take the owning [`Interner::intern`]. Both paths share one table, so
//! a name gets the same symbol whichever way it arrives.
//!
//! Symbols are handed out in first-intern order, which is itself
//! deterministic (instrumented code interns its names in a fixed order at
//! attach time, and identical trace record sequences intern identical
//! strings), so exports and serialized traces keyed by symbol index are
//! bit-identical across runs and `JSK_JOBS` settings.

use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// An interned name: a cheap, copyable index into an [`Interner`].
///
/// A symbol is only meaningful together with the interner that issued it.
/// Serializes as its raw index; the table travels alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(u32);

impl Sym {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// First-occurrence string interner: `intern` returns a stable [`Sym`] per
/// distinct string; `resolve` maps it back. Literal names are held
/// borrowed, run-time names owned.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Cow<'static, str>>,
    index: HashMap<Cow<'static, str>, u32>,
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `s`, returning its symbol (existing or freshly assigned).
    /// A new name is copied into the table.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.intern_with(s, |s| Cow::Owned(s.to_owned()))
    }

    /// Interns a `'static` name (a literal) without copying it. The
    /// symbol is the one [`Interner::intern`] gives the same text.
    pub fn intern_static(&mut self, s: &'static str) -> Sym {
        self.intern_with(s, |_| Cow::Borrowed(s))
    }

    fn intern_with<'a>(&mut self, s: &'a str, store: impl Fn(&'a str) -> Cow<'static, str>) -> Sym {
        if let Some(&i) = self.index.get(s) {
            return Sym(i);
        }
        let i = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(store(s));
        self.index.insert(store(s), i);
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
        let strings: Vec<Cow<'static, str>> = Vec::<String>::from_value(v)?
            .into_iter()
            .map(Cow::Owned)
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
    fn literal_and_runtime_names_share_symbols_and_the_serialized_table() {
        let mut i = Interner::new();
        let dispatch = i.intern_static("kernel.dispatch");
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
