//! Symbol interning.

use crate::ids::Sym;
use std::collections::HashMap;
use std::sync::Arc;

/// Interns variable/array names to small copyable [`Sym`] handles.
///
/// The table is copy-on-write: `clone()` is one refcount bump, and the
/// first `intern`/`fresh` after a share copies the storage once. Programs
/// are cloned on every checkpoint but intern new names only when a
/// transformation mints a temporary, so sharing is the common case.
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    inner: Arc<Inner>,
}

#[derive(Clone, Debug, Default)]
struct Inner {
    names: Vec<String>,
    map: HashMap<String, Sym>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.inner.map.get(name) {
            return s;
        }
        let inner = Arc::make_mut(&mut self.inner);
        let s = Sym(inner.names.len() as u32);
        inner.names.push(name.to_owned());
        inner.map.insert(name.to_owned(), s);
        s
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.inner.map.get(name).copied()
    }

    /// Resolve a symbol back to its name.
    pub fn name(&self, sym: Sym) -> &str {
        &self.inner.names[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.names.len()
    }

    /// True if no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.inner.names.is_empty()
    }

    /// A symbol for a temporary named after `base` (e.g. the strip
    /// variable of strip mining): the first of `base`, `base_1`, … that is
    /// either not interned yet or interned with `taken` false. A name that
    /// nothing refers to any more is handed out again instead of minting a
    /// new suffix; `|_| true` never reuses an interned name.
    pub fn fresh(&mut self, base: &str, taken: impl Fn(Sym) -> bool) -> Sym {
        let mut i = 0usize;
        loop {
            let cand = if i == 0 {
                base.to_owned()
            } else {
                format!("{base}_{i}")
            };
            match self.get(&cand) {
                None => return self.intern(&cand),
                Some(s) if !taken(s) => return s,
                Some(_) => i += 1,
            }
        }
    }

    /// Iterate over `(Sym, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.inner
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }

    /// A copy sharing no storage with `self` — the pre-CoW eager-clone
    /// cost profile, kept for the `cowcheck` baseline.
    pub fn deep_clone(&self) -> SymbolTable {
        SymbolTable {
            inner: Arc::new((*self.inner).clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("A");
        let b = t.intern("B");
        assert_ne!(a, b);
        assert_eq!(t.intern("A"), a);
        assert_eq!(t.name(a), "A");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_without_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.get("X"), None);
        let x = t.intern("X");
        assert_eq!(t.get("X"), Some(x));
    }

    #[test]
    fn fresh_avoids_collisions() {
        let mut t = SymbolTable::new();
        t.intern("t");
        t.intern("t_1");
        let f = t.fresh("t", |_| true);
        assert_eq!(t.name(f), "t_2");
        let g = t.fresh("u", |_| true);
        assert_eq!(t.name(g), "u");
    }

    #[test]
    fn fresh_reuses_untaken_interned_names() {
        let mut t = SymbolTable::new();
        let s = t.intern("i_s");
        let s1 = t.intern("i_s_1");
        assert_eq!(t.fresh("i_s", |_| false), s);
        assert_eq!(t.fresh("i_s", |y| y == s), s1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iter_in_order() {
        let mut t = SymbolTable::new();
        t.intern("A");
        t.intern("B");
        let v: Vec<_> = t.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(v, vec!["A", "B"]);
    }

    #[test]
    fn clone_shares_until_intern() {
        let mut t = SymbolTable::new();
        t.intern("A");
        let before = t.clone();
        let b = t.intern("B");
        assert_eq!(
            before.get("B"),
            None,
            "held clone must not see later interns"
        );
        assert_eq!(t.get("B"), Some(b));
        let deep = t.deep_clone();
        assert_eq!(deep.get("B"), Some(b));
    }
}
