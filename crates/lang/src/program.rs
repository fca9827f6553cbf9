//! The mutable program: statement and expression arenas plus structural
//! editing operations.
//!
//! All mutation of program structure flows through the methods here
//! ([`Program::attach`], [`Program::detach`], [`Program::replace_expr_kind`],
//! [`Program::deep_copy_stmt`], …). The transformation layer builds the
//! paper's five primitive actions (Table 1) on top of exactly these
//! operations, which keeps parent/child links and expression ownership
//! consistent by construction.
//!
//! Deleted statements and orphaned expressions are **kept in the arenas** as
//! tombstones. This realizes the paper's history requirements: `Del_stmt S_i`
//! with a pointer to the original location (Table 2), and the ADAG's
//! retention of "the original subexpression tree" under a modified node.

use crate::ast::{BlockRole, Expr, ExprKind, LValue, Parent, Stmt, StmtKind};
use crate::ids::{ExprId, StmtId, Sym};
use crate::pvec::PVec;
use crate::symbols::SymbolTable;

/// Insertion point within a block: at the start, or immediately after an
/// anchor statement. Anchors — rather than integer indices — are what make
/// the paper's reversibility conditions checkable: if the anchor or the
/// parent context is later deleted or detached, "the original location …
/// cannot be determined" (Table 3) and the location no longer resolves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AnchorPos {
    /// Insert as the first statement of the block.
    Start,
    /// Insert immediately after this sibling.
    After(StmtId),
}

/// A (parent block, position) pair addressing a slot in the program tree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Loc {
    /// The block that holds the slot.
    pub parent: Parent,
    /// Position within that block.
    pub anchor: AnchorPos,
}

impl Loc {
    /// Slot at the start of the root body.
    pub fn root_start() -> Self {
        Loc {
            parent: Parent::Root,
            anchor: AnchorPos::Start,
        }
    }

    /// Slot immediately after `s` within `parent`.
    pub fn after(parent: Parent, s: StmtId) -> Self {
        Loc {
            parent,
            anchor: AnchorPos::After(s),
        }
    }
}

/// Errors from structural editing operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EditError {
    /// The target statement is detached but the operation needs it attached.
    Detached(StmtId),
    /// The target statement is attached but the operation needs it detached.
    AlreadyAttached(StmtId),
    /// A location does not resolve: its parent context is detached or its
    /// anchor is missing from the parent block. This is the mechanical form
    /// of Table 3's "original location cannot be determined".
    UnresolvableLoc(Loc),
    /// Attaching here would create a cycle (a statement inside itself).
    WouldCycle(StmtId),
    /// The statement has no block of the requested role (e.g. `LoopBody` of
    /// an assignment).
    NoSuchBlock(StmtId, BlockRole),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::Detached(s) => write!(f, "statement {s} is detached"),
            EditError::AlreadyAttached(s) => write!(f, "statement {s} is already attached"),
            EditError::UnresolvableLoc(l) => write!(f, "location {l:?} cannot be resolved"),
            EditError::WouldCycle(s) => write!(f, "attaching {s} would create a cycle"),
            EditError::NoSuchBlock(s, r) => write!(f, "statement {s} has no {r:?} block"),
        }
    }
}

impl std::error::Error for EditError {}

/// The program: arenas, root body, and symbol table.
///
/// The arenas are [`PVec`]s — chunked persistent vectors — so cloning a
/// `Program` (session forks, transactional checkpoints, the `original`
/// round-trip baseline) copies only chunk tables and shares every
/// untouched chunk; structural edits copy exactly the chunks they dirty.
#[derive(Clone, Debug, Default)]
pub struct Program {
    stmts: PVec<Stmt>,
    exprs: PVec<Expr>,
    /// Top-level statement list.
    pub body: Vec<StmtId>,
    /// Interned names.
    pub symbols: SymbolTable,
    next_label: u32,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Program {
            next_label: 1,
            ..Default::default()
        }
    }

    /// A copy whose arenas share no chunks with `self` — the cost profile
    /// of the pre-CoW eager clone. Only the `cowcheck` gate and the
    /// differential oracles should need this; ordinary `clone()` shares
    /// every untouched chunk.
    pub fn deep_clone(&self) -> Program {
        Program {
            stmts: self.stmts.unshared(),
            exprs: self.exprs.unshared(),
            body: self.body.clone(),
            symbols: self.symbols.deep_clone(),
            next_label: self.next_label,
        }
    }

    // ------------------------------------------------------------------
    // Arena access
    // ------------------------------------------------------------------

    /// Borrow a statement node.
    #[inline]
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// Mutably borrow a statement node. Prefer the structured editing
    /// methods; direct mutation must keep links consistent.
    #[inline]
    pub fn stmt_mut(&mut self, id: StmtId) -> &mut Stmt {
        &mut self.stmts[id.index()]
    }

    /// Borrow an expression node.
    #[inline]
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.index()]
    }

    /// Mutably borrow an expression node.
    #[inline]
    pub fn expr_mut(&mut self, id: ExprId) -> &mut Expr {
        &mut self.exprs[id.index()]
    }

    /// Number of statement arena slots (including tombstones).
    pub fn stmt_arena_len(&self) -> usize {
        self.stmts.len()
    }

    /// Number of expression arena slots (including orphans).
    pub fn expr_arena_len(&self) -> usize {
        self.exprs.len()
    }

    /// All statement IDs ever allocated, attached or not.
    pub fn all_stmt_ids(&self) -> impl Iterator<Item = StmtId> {
        (0..self.stmts.len() as u32).map(StmtId)
    }

    /// The next label [`Program::alloc_stmt`] would assign. Together with
    /// [`Program::from_raw_parts`] this lets a serialized snapshot of the
    /// arenas round-trip exactly (labels keep their original numbering).
    pub fn next_label(&self) -> u32 {
        self.next_label
    }

    /// Reconstruct a program from raw arena contents — the inverse of
    /// reading the arenas out node by node (`stmt`/`expr`/`body`/`symbols`/
    /// [`Program::next_label`]). This exists for checkpoint/snapshot
    /// restore, where tombstone statements and orphan expressions must be
    /// reproduced exactly (they are what undo replays against); it performs
    /// no consistency checking — callers restore from trusted snapshots and
    /// verify with [`Program::check_invariants`].
    pub fn from_raw_parts(
        stmts: Vec<Stmt>,
        exprs: Vec<Expr>,
        body: Vec<StmtId>,
        symbols: SymbolTable,
        next_label: u32,
    ) -> Program {
        Program {
            stmts: stmts.into(),
            exprs: exprs.into(),
            body,
            symbols,
            next_label,
        }
    }

    /// Allocate a detached statement with a fresh label.
    pub fn alloc_stmt(&mut self, kind: StmtKind) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        let label = self.next_label;
        self.next_label += 1;
        self.stmts.push(Stmt {
            kind,
            parent: None,
            label,
        });
        id
    }

    /// Allocate an expression owned by `owner`.
    pub fn alloc_expr(&mut self, kind: ExprKind, owner: StmtId) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(Expr { kind, owner });
        id
    }

    /// Allocate an expression whose owner will be fixed up when the
    /// containing statement is built (placeholder owner = `StmtId(u32::MAX)`
    /// would be unsafe; instead we use the statement about to be allocated).
    /// Convenience used by the parser/builder: allocate with a provisional
    /// owner then call [`Program::set_owner_rec`] from the finished statement.
    pub fn alloc_expr_raw(&mut self, kind: ExprKind) -> ExprId {
        self.alloc_expr(kind, StmtId(0))
    }

    // ------------------------------------------------------------------
    // Blocks and navigation
    // ------------------------------------------------------------------

    /// The child list of a block.
    pub fn block(&self, parent: Parent) -> &Vec<StmtId> {
        match parent {
            Parent::Root => &self.body,
            Parent::Block(s, role) => match (&self.stmt(s).kind, role) {
                (StmtKind::DoLoop { body, .. }, BlockRole::LoopBody) => body,
                (StmtKind::If { then_body, .. }, BlockRole::Then) => then_body,
                (StmtKind::If { else_body, .. }, BlockRole::Else) => else_body,
                _ => panic!("statement {s} has no {role:?} block"),
            },
        }
    }

    fn block_mut(&mut self, parent: Parent) -> &mut Vec<StmtId> {
        match parent {
            Parent::Root => &mut self.body,
            Parent::Block(s, role) => match (&mut self.stmts[s.index()].kind, role) {
                (StmtKind::DoLoop { body, .. }, BlockRole::LoopBody) => body,
                (StmtKind::If { then_body, .. }, BlockRole::Then) => then_body,
                (StmtKind::If { else_body, .. }, BlockRole::Else) => else_body,
                _ => panic!("statement {s} has no {role:?} block"),
            },
        }
    }

    /// Does `parent` structurally denote a block (regardless of liveness)?
    pub fn parent_exists(&self, parent: Parent) -> bool {
        match parent {
            Parent::Root => true,
            Parent::Block(s, role) => matches!(
                (&self.stmt(s).kind, role),
                (StmtKind::DoLoop { .. }, BlockRole::LoopBody)
                    | (StmtKind::If { .. }, BlockRole::Then)
                    | (StmtKind::If { .. }, BlockRole::Else)
            ),
        }
    }

    /// Is this statement reachable from the program root by parent links?
    /// Statements inside a detached subtree have a parent but are not live.
    pub fn is_live(&self, id: StmtId) -> bool {
        let mut cur = id;
        loop {
            match self.stmt(cur).parent {
                None => return false,
                Some(Parent::Root) => return true,
                Some(Parent::Block(up, _)) => cur = up,
            }
        }
    }

    /// Does `parent` currently denote a **live** block? Root always does; a
    /// block of a statement requires that statement to be live.
    pub fn parent_is_live(&self, parent: Parent) -> bool {
        match parent {
            Parent::Root => true,
            Parent::Block(s, _) => self.parent_exists(parent) && self.is_live(s),
        }
    }

    /// Resolve a location to a concrete insertion index **in the live
    /// program**, or report why it no longer resolves. This check **is** the
    /// reversibility test for locations saved in transformation history: if
    /// the context was deleted or the anchor removed, "the original location
    /// … cannot be determined" (Table 3).
    pub fn resolve_loc(&self, loc: Loc) -> Result<usize, EditError> {
        if !self.parent_is_live(loc.parent) {
            return Err(EditError::UnresolvableLoc(loc));
        }
        self.resolve_loc_structural(loc)
    }

    /// Resolve a location without requiring the parent context to be live.
    /// Used while *building* detached subtrees (parser, deep copy); the undo
    /// layer uses [`Program::resolve_loc`] instead.
    pub fn resolve_loc_structural(&self, loc: Loc) -> Result<usize, EditError> {
        if !self.parent_exists(loc.parent) {
            return Err(EditError::UnresolvableLoc(loc));
        }
        match loc.anchor {
            AnchorPos::Start => Ok(0),
            AnchorPos::After(a) => {
                let blk = self.block(loc.parent);
                match blk.iter().position(|&s| s == a) {
                    Some(i) => Ok(i + 1),
                    None => Err(EditError::UnresolvableLoc(loc)),
                }
            }
        }
    }

    /// The current location of an attached statement, expressed with an
    /// anchor (predecessor sibling or block start).
    pub fn loc_of(&self, id: StmtId) -> Result<Loc, EditError> {
        let parent = self.stmt(id).parent.ok_or(EditError::Detached(id))?;
        let blk = self.block(parent);
        let idx = blk
            .iter()
            .position(|&s| s == id)
            .expect("attached statement must appear in its parent block");
        let anchor = if idx == 0 {
            AnchorPos::Start
        } else {
            AnchorPos::After(blk[idx - 1])
        };
        Ok(Loc { parent, anchor })
    }

    /// Index of `id` within its parent block.
    pub fn index_in_parent(&self, id: StmtId) -> Result<usize, EditError> {
        let parent = self.stmt(id).parent.ok_or(EditError::Detached(id))?;
        Ok(self
            .block(parent)
            .iter()
            .position(|&s| s == id)
            .expect("attached statement must appear in its parent block"))
    }

    /// The sibling immediately following `id`, if any.
    pub fn next_sibling(&self, id: StmtId) -> Option<StmtId> {
        let parent = self.stmt(id).parent?;
        let blk = self.block(parent);
        let idx = blk.iter().position(|&s| s == id)?;
        blk.get(idx + 1).copied()
    }

    /// The sibling immediately preceding `id`, if any.
    pub fn prev_sibling(&self, id: StmtId) -> Option<StmtId> {
        let parent = self.stmt(id).parent?;
        let blk = self.block(parent);
        let idx = blk.iter().position(|&s| s == id)?;
        if idx == 0 {
            None
        } else {
            Some(blk[idx - 1])
        }
    }

    /// Enclosing statement (loop or if) of `id`, if its parent is a block.
    pub fn enclosing_stmt(&self, id: StmtId) -> Option<StmtId> {
        match self.stmt(id).parent? {
            Parent::Root => None,
            Parent::Block(s, _) => Some(s),
        }
    }

    /// Chain of enclosing statements from innermost outward.
    pub fn ancestors(&self, id: StmtId) -> Vec<StmtId> {
        let mut out = Vec::new();
        let mut cur = id;
        while let Some(up) = self.enclosing_stmt(cur) {
            out.push(up);
            cur = up;
        }
        out
    }

    /// Is `anc` a (transitive) ancestor of `id`?
    pub fn is_ancestor(&self, anc: StmtId, id: StmtId) -> bool {
        let mut cur = id;
        while let Some(up) = self.enclosing_stmt(cur) {
            if up == anc {
                return true;
            }
            cur = up;
        }
        false
    }

    /// Enclosing `do` loops of `id`, innermost first.
    pub fn enclosing_loops(&self, id: StmtId) -> Vec<StmtId> {
        self.ancestors(id)
            .into_iter()
            .filter(|&a| matches!(self.stmt(a).kind, StmtKind::DoLoop { .. }))
            .collect()
    }

    // ------------------------------------------------------------------
    // Structural editing
    // ------------------------------------------------------------------

    /// Attach a detached statement at `loc`.
    pub fn attach(&mut self, id: StmtId, loc: Loc) -> Result<(), EditError> {
        if self.stmt(id).is_attached() {
            return Err(EditError::AlreadyAttached(id));
        }
        // Cycle check: the statement must not be an ancestor of the target
        // parent block's owner.
        if let Parent::Block(owner, _) = loc.parent {
            if owner == id || self.is_ancestor(id, owner) {
                return Err(EditError::WouldCycle(id));
            }
        }
        let idx = self.resolve_loc_structural(loc)?;
        self.block_mut(loc.parent).insert(idx, id);
        self.stmt_mut(id).parent = Some(loc.parent);
        Ok(())
    }

    /// Detach an attached statement, returning the anchored location it
    /// occupied (for later restoration). Its subtree stays intact.
    pub fn detach(&mut self, id: StmtId) -> Result<Loc, EditError> {
        let loc = self.loc_of(id)?;
        let parent = self.stmt(id).parent.expect("loc_of checked attachment");
        let blk = self.block_mut(parent);
        let idx = blk.iter().position(|&s| s == id).expect("attached");
        blk.remove(idx);
        self.stmt_mut(id).parent = None;
        Ok(loc)
    }

    /// Move an attached statement to a new location, returning its previous
    /// location (the inverse Move's destination, per Table 1).
    pub fn move_stmt(&mut self, id: StmtId, to: Loc) -> Result<Loc, EditError> {
        // Validate destination *before* detaching so failure leaves the
        // program untouched; but note the destination may only resolve after
        // the detach when anchored near `id` itself. Handle the self-anchor
        // case explicitly.
        if let AnchorPos::After(a) = to.anchor {
            if a == id {
                return Err(EditError::UnresolvableLoc(to));
            }
        }
        if let Parent::Block(owner, _) = to.parent {
            if owner == id || self.is_ancestor(id, owner) {
                return Err(EditError::WouldCycle(id));
            }
        }
        let from = self.detach(id)?;
        match self.attach(id, to) {
            Ok(()) => Ok(from),
            Err(e) => {
                // Roll back: re-attach where it was.
                self.attach(id, from)
                    .expect("rollback to original location");
                Err(e)
            }
        }
    }

    /// Replace an expression node's payload in place, returning the old
    /// payload. Sub-expressions referenced by the old payload stay in the
    /// arena (the ADAG keeps "the original subexpression tree"), so the
    /// inverse Modify can restore them exactly.
    pub fn replace_expr_kind(&mut self, id: ExprId, new_kind: ExprKind) -> ExprKind {
        let owner = self.expr(id).owner;
        // Fix ownership of any newly referenced children.
        let mut stack: Vec<ExprId> = Vec::new();
        collect_children(&new_kind, &mut stack);
        while let Some(c) = stack.pop() {
            self.exprs[c.index()].owner = owner;
            let kind = self.exprs[c.index()].kind.clone();
            collect_children(&kind, &mut stack);
        }
        std::mem::replace(&mut self.exprs[id.index()].kind, new_kind)
    }

    /// Deep-copy an expression subtree with fresh IDs, owned by `owner`.
    pub fn clone_expr(&mut self, root: ExprId, owner: StmtId) -> ExprId {
        let kind = self.expr(root).kind.clone();
        let new_kind = match kind {
            ExprKind::Const(c) => ExprKind::Const(c),
            ExprKind::Var(v) => ExprKind::Var(v),
            ExprKind::Index(a, subs) => {
                let subs = subs.iter().map(|&s| self.clone_expr(s, owner)).collect();
                ExprKind::Index(a, subs)
            }
            ExprKind::Unary(op, a) => ExprKind::Unary(op, self.clone_expr(a, owner)),
            ExprKind::Binary(op, a, b) => {
                let a = self.clone_expr(a, owner);
                let b = self.clone_expr(b, owner);
                ExprKind::Binary(op, a, b)
            }
        };
        self.alloc_expr(new_kind, owner)
    }

    /// Deep-copy a statement subtree (fresh statement and expression IDs).
    /// The copy is returned **detached**; labels are fresh. The inverse of
    /// the paper's `Copy` action is `Delete(copy_root)`.
    pub fn deep_copy_stmt(&mut self, id: StmtId) -> StmtId {
        let kind = self.stmt(id).kind.clone();
        // Allocate the new statement first so expressions can be owned by it.
        let new_id = self.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let new_kind = match kind {
            StmtKind::Assign { target, value } => {
                let target = self.clone_lvalue(&target, new_id);
                let value = self.clone_expr(value, new_id);
                StmtKind::Assign { target, value }
            }
            StmtKind::Read { target } => {
                let target = self.clone_lvalue(&target, new_id);
                StmtKind::Read { target }
            }
            StmtKind::Write { value } => {
                let value = self.clone_expr(value, new_id);
                StmtKind::Write { value }
            }
            StmtKind::DoLoop {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let lo = self.clone_expr(lo, new_id);
                let hi = self.clone_expr(hi, new_id);
                let step = step.map(|s| self.clone_expr(s, new_id));
                let body: Vec<StmtId> = body
                    .iter()
                    .map(|&c| {
                        let nc = self.deep_copy_stmt(c);
                        self.stmt_mut(nc).parent = Some(Parent::Block(new_id, BlockRole::LoopBody));
                        nc
                    })
                    .collect();
                StmtKind::DoLoop {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.clone_expr(cond, new_id);
                let then_body: Vec<StmtId> = then_body
                    .iter()
                    .map(|&c| {
                        let nc = self.deep_copy_stmt(c);
                        self.stmt_mut(nc).parent = Some(Parent::Block(new_id, BlockRole::Then));
                        nc
                    })
                    .collect();
                let else_body: Vec<StmtId> = else_body
                    .iter()
                    .map(|&c| {
                        let nc = self.deep_copy_stmt(c);
                        self.stmt_mut(nc).parent = Some(Parent::Block(new_id, BlockRole::Else));
                        nc
                    })
                    .collect();
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                }
            }
        };
        self.stmt_mut(new_id).kind = new_kind;
        new_id
    }

    fn clone_lvalue(&mut self, lv: &LValue, owner: StmtId) -> LValue {
        LValue {
            var: lv.var,
            subs: lv.subs.iter().map(|&s| self.clone_expr(s, owner)).collect(),
        }
    }

    /// Recursively set the owner of an expression subtree.
    pub fn set_owner_rec(&mut self, root: ExprId, owner: StmtId) {
        let mut stack = vec![root];
        while let Some(e) = stack.pop() {
            self.exprs[e.index()].owner = owner;
            let kind = self.exprs[e.index()].kind.clone();
            collect_children(&kind, &mut stack);
        }
    }

    /// Fix expression ownership for all expression roots of `id`.
    pub fn fix_owners(&mut self, id: StmtId) {
        for r in self.stmt_expr_roots(id) {
            self.set_owner_rec(r, id);
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Expression roots of a statement: RHS/condition/bounds plus any
    /// lvalue subscripts.
    pub fn stmt_expr_roots(&self, id: StmtId) -> Vec<ExprId> {
        let mut out = Vec::new();
        match &self.stmt(id).kind {
            StmtKind::Assign { target, value } => {
                out.extend(target.subs.iter().copied());
                out.push(*value);
            }
            StmtKind::Read { target } => out.extend(target.subs.iter().copied()),
            StmtKind::Write { value } => out.push(*value),
            StmtKind::DoLoop { lo, hi, step, .. } => {
                out.push(*lo);
                out.push(*hi);
                if let Some(s) = step {
                    out.push(*s);
                }
            }
            StmtKind::If { cond, .. } => out.push(*cond),
        }
        out
    }

    /// All expression IDs reachable from a statement's roots (pre-order).
    pub fn stmt_exprs(&self, id: StmtId) -> Vec<ExprId> {
        let mut out = Vec::new();
        let mut stack: Vec<ExprId> = self.stmt_expr_roots(id);
        stack.reverse();
        while let Some(e) = stack.pop() {
            out.push(e);
            let mark = stack.len();
            collect_children(&self.expr(e).kind, &mut stack);
            stack[mark..].reverse();
        }
        out
    }

    /// Pre-order walk of all attached statements (the current program).
    pub fn attached_stmts(&self) -> Vec<StmtId> {
        let mut out = Vec::new();
        self.walk_block(&self.body, &mut out);
        out
    }

    fn walk_block(&self, blk: &[StmtId], out: &mut Vec<StmtId>) {
        for &s in blk {
            out.push(s);
            match &self.stmt(s).kind {
                StmtKind::DoLoop { body, .. } => self.walk_block(body, out),
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.walk_block(then_body, out);
                    self.walk_block(else_body, out);
                }
                _ => {}
            }
        }
    }

    /// Pre-order walk of the subtree rooted at `id` (including `id`).
    pub fn subtree(&self, id: StmtId) -> Vec<StmtId> {
        let mut out = vec![id];
        match &self.stmt(id).kind {
            StmtKind::DoLoop { body, .. } => self.walk_block(body, &mut out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                self.walk_block(then_body, &mut out);
                self.walk_block(else_body, &mut out);
            }
            _ => {}
        }
        out
    }

    /// Count of attached statements.
    pub fn attached_len(&self) -> usize {
        self.attached_stmts().len()
    }

    /// Symbols read (used) by the expression subtree at `root`, appended to
    /// `out` (scalars and array base names both included).
    pub fn expr_uses(&self, root: ExprId, out: &mut Vec<Sym>) {
        let mut stack = vec![root];
        while let Some(e) = stack.pop() {
            match &self.expr(e).kind {
                ExprKind::Const(_) => {}
                ExprKind::Var(v) => out.push(*v),
                ExprKind::Index(a, subs) => {
                    out.push(*a);
                    stack.extend(subs.iter().copied());
                }
                ExprKind::Unary(_, a) => stack.push(*a),
                ExprKind::Binary(_, a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
            }
        }
    }

    /// Constant-evaluate an expression if it is built only from literals.
    pub fn const_eval(&self, root: ExprId) -> Option<i64> {
        match &self.expr(root).kind {
            ExprKind::Const(c) => Some(*c),
            ExprKind::Var(_) | ExprKind::Index(..) => None,
            ExprKind::Unary(op, a) => Some(op.eval(self.const_eval(*a)?)),
            ExprKind::Binary(op, a, b) => op.eval(self.const_eval(*a)?, self.const_eval(*b)?),
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by tests / property tests)
    // ------------------------------------------------------------------

    /// Check structural invariants:
    /// 1. every statement listed in some block has a parent link pointing
    ///    back at exactly that block, and appears in at most one block;
    /// 2. every statement with a parent link appears in the block its link
    ///    names (no dangling links);
    /// 3. expression owners match the statements whose roots reach them;
    /// 4. the forest (live tree plus detached subtrees) is acyclic.
    ///
    /// Returns a list of human-readable violations (empty = consistent).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut errs = Vec::new();
        // membership[c] = the (parent, role) block that lists c, if any.
        let mut membership: Vec<Option<Parent>> = vec![None; self.stmts.len()];
        let note = |c: StmtId, p: Parent, errs: &mut Vec<String>, m: &mut Vec<Option<Parent>>| {
            if m[c.index()].is_some() {
                errs.push(format!("statement {c} appears in more than one block"));
            } else {
                m[c.index()] = Some(p);
            }
        };
        for &c in &self.body {
            note(c, Parent::Root, &mut errs, &mut membership);
        }
        for id in self.all_stmt_ids() {
            match &self.stmt(id).kind {
                StmtKind::DoLoop { body, .. } => {
                    for &c in body {
                        note(
                            c,
                            Parent::Block(id, BlockRole::LoopBody),
                            &mut errs,
                            &mut membership,
                        );
                    }
                }
                StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    for &c in then_body {
                        note(
                            c,
                            Parent::Block(id, BlockRole::Then),
                            &mut errs,
                            &mut membership,
                        );
                    }
                    for &c in else_body {
                        note(
                            c,
                            Parent::Block(id, BlockRole::Else),
                            &mut errs,
                            &mut membership,
                        );
                    }
                }
                _ => {}
            }
        }
        let mut estack: Vec<ExprId> = Vec::new();
        for id in self.all_stmt_ids() {
            if self.stmt(id).parent != membership[id.index()] {
                errs.push(format!(
                    "statement {id} parent link {:?} disagrees with block membership {:?}",
                    self.stmt(id).parent,
                    membership[id.index()]
                ));
            }
            // Acyclicity: parent chains must terminate.
            let mut hops = 0usize;
            let mut cur = id;
            while let Some(Parent::Block(up, _)) = self.stmt(cur).parent {
                cur = up;
                hops += 1;
                if hops > self.stmts.len() {
                    errs.push(format!("cycle in parent chain starting at {id}"));
                    break;
                }
            }
            // Expression ownership (reuses one stack across statements;
            // visit order is irrelevant here).
            estack.extend(self.stmt_expr_roots(id));
            while let Some(e) = estack.pop() {
                if self.expr(e).owner != id {
                    errs.push(format!(
                        "expression {e} reachable from {id} but owned by {:?}",
                        self.expr(e).owner
                    ));
                }
                collect_children(&self.expr(e).kind, &mut estack);
            }
        }
        errs
    }

    /// Panic with details if invariants are violated (test helper).
    pub fn assert_consistent(&self) {
        let errs = self.check_invariants();
        assert!(
            errs.is_empty(),
            "program invariants violated:\n{}",
            errs.join("\n")
        );
    }
}

/// Push the direct child expression IDs of `kind` onto `out`.
pub fn collect_children(kind: &ExprKind, out: &mut Vec<ExprId>) {
    match kind {
        ExprKind::Const(_) | ExprKind::Var(_) => {}
        ExprKind::Index(_, subs) => out.extend(subs.iter().copied()),
        ExprKind::Unary(_, a) => out.push(*a),
        ExprKind::Binary(_, a, b) => {
            out.push(*a);
            out.push(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    fn mini() -> (Program, StmtId, StmtId) {
        // x = 1 ; do i = 1, 10 { y = x + 2 }
        let mut p = Program::new();
        let x = p.symbols.intern("x");
        let y = p.symbols.intern("y");
        let i = p.symbols.intern("i");
        let s1 = p.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let c1 = p.alloc_expr(ExprKind::Const(1), s1);
        p.stmt_mut(s1).kind = StmtKind::Assign {
            target: LValue::scalar(x),
            value: c1,
        };
        let l = p.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let lo = p.alloc_expr(ExprKind::Const(1), l);
        let hi = p.alloc_expr(ExprKind::Const(10), l);
        let s2 = p.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let vx = p.alloc_expr(ExprKind::Var(x), s2);
        let c2 = p.alloc_expr(ExprKind::Const(2), s2);
        let add = p.alloc_expr(ExprKind::Binary(BinOp::Add, vx, c2), s2);
        p.stmt_mut(s2).kind = StmtKind::Assign {
            target: LValue::scalar(y),
            value: add,
        };
        p.stmt_mut(l).kind = StmtKind::DoLoop {
            var: i,
            lo,
            hi,
            step: None,
            body: vec![],
        };
        p.attach(s1, Loc::root_start()).unwrap();
        p.attach(l, Loc::after(Parent::Root, s1)).unwrap();
        p.attach(
            s2,
            Loc {
                parent: Parent::Block(l, BlockRole::LoopBody),
                anchor: AnchorPos::Start,
            },
        )
        .unwrap();
        p.assert_consistent();
        (p, s1, l)
    }

    #[test]
    fn attach_detach_roundtrip() {
        let (mut p, s1, _l) = mini();
        let loc = p.detach(s1).unwrap();
        assert!(!p.stmt(s1).is_attached());
        assert_eq!(p.body.len(), 1);
        p.attach(s1, loc).unwrap();
        assert_eq!(p.body[0], s1);
        p.assert_consistent();
    }

    #[test]
    fn detach_detached_fails() {
        let (mut p, s1, _) = mini();
        p.detach(s1).unwrap();
        assert_eq!(p.detach(s1), Err(EditError::Detached(s1)));
    }

    #[test]
    fn attach_attached_fails() {
        let (mut p, s1, _) = mini();
        assert_eq!(
            p.attach(s1, Loc::root_start()),
            Err(EditError::AlreadyAttached(s1))
        );
    }

    #[test]
    fn loc_of_uses_anchors() {
        let (p, s1, l) = mini();
        assert_eq!(p.loc_of(s1).unwrap().anchor, AnchorPos::Start);
        assert_eq!(p.loc_of(l).unwrap().anchor, AnchorPos::After(s1));
    }

    #[test]
    fn unresolvable_after_anchor_removed() {
        let (mut p, s1, l) = mini();
        let loc_l = p.loc_of(l).unwrap(); // After(s1)
        p.detach(s1).unwrap();
        assert!(matches!(
            p.resolve_loc(loc_l),
            Err(EditError::UnresolvableLoc(_))
        ));
    }

    #[test]
    fn unresolvable_after_context_detached() {
        let (mut p, _s1, l) = mini();
        let body = p.block(Parent::Block(l, BlockRole::LoopBody)).clone();
        let inner = body[0];
        let loc = p.loc_of(inner).unwrap();
        p.detach(l).unwrap();
        // The loop is detached, so its body block is not a live parent.
        assert!(matches!(
            p.resolve_loc(loc),
            Err(EditError::UnresolvableLoc(_))
        ));
    }

    #[test]
    fn move_returns_original_location() {
        let (mut p, s1, l) = mini();
        let body = p.block(Parent::Block(l, BlockRole::LoopBody)).clone();
        let inner = body[0];
        let from = p.move_stmt(inner, Loc::after(Parent::Root, s1)).unwrap();
        assert_eq!(from.parent, Parent::Block(l, BlockRole::LoopBody));
        assert_eq!(p.body.len(), 3);
        p.assert_consistent();
        // Move back using the returned location (the inverse Move).
        p.move_stmt(inner, from).unwrap();
        assert_eq!(p.body.len(), 2);
        p.assert_consistent();
    }

    #[test]
    fn move_into_own_subtree_is_cyclic() {
        let (mut p, _s1, l) = mini();
        let err = p
            .move_stmt(
                l,
                Loc {
                    parent: Parent::Block(l, BlockRole::LoopBody),
                    anchor: AnchorPos::Start,
                },
            )
            .unwrap_err();
        assert_eq!(err, EditError::WouldCycle(l));
        // Rollback left the program intact.
        p.assert_consistent();
        assert!(p.stmt(l).is_attached());
    }

    #[test]
    fn move_after_self_rejected() {
        let (mut p, s1, _l) = mini();
        let err = p.move_stmt(s1, Loc::after(Parent::Root, s1)).unwrap_err();
        assert!(matches!(err, EditError::UnresolvableLoc(_)));
        p.assert_consistent();
    }

    #[test]
    fn replace_expr_kind_keeps_children_for_inverse() {
        let (mut p, _s1, l) = mini();
        let body = p.block(Parent::Block(l, BlockRole::LoopBody)).clone();
        let inner = body[0];
        let rhs = match p.stmt(inner).kind {
            StmtKind::Assign { value, .. } => value,
            _ => unreachable!(),
        };
        let old = p.replace_expr_kind(rhs, ExprKind::Const(42));
        assert!(matches!(old, ExprKind::Binary(BinOp::Add, _, _)));
        assert!(matches!(p.expr(rhs).kind, ExprKind::Const(42)));
        // Restore via the saved payload — children still live in the arena.
        p.replace_expr_kind(rhs, old);
        assert!(matches!(
            p.expr(rhs).kind,
            ExprKind::Binary(BinOp::Add, _, _)
        ));
        p.assert_consistent();
    }

    #[test]
    fn deep_copy_is_detached_and_fresh() {
        let (mut p, _s1, l) = mini();
        let copy = p.deep_copy_stmt(l);
        assert!(!p.stmt(copy).is_attached());
        assert_ne!(copy, l);
        // Attach and verify consistency, then the copied subtree is disjoint.
        let loc = Loc::after(Parent::Root, *p.body.last().unwrap());
        p.attach(copy, loc).unwrap();
        p.assert_consistent();
        let orig: std::collections::HashSet<_> = p.subtree(l).into_iter().collect();
        let cpy: std::collections::HashSet<_> = p.subtree(copy).into_iter().collect();
        assert!(orig.is_disjoint(&cpy));
    }

    #[test]
    fn const_eval_folds_literals_only() {
        let mut p = Program::new();
        let s = p.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let a = p.alloc_expr(ExprKind::Const(6), s);
        let b = p.alloc_expr(ExprKind::Const(7), s);
        let m = p.alloc_expr(ExprKind::Binary(BinOp::Mul, a, b), s);
        assert_eq!(p.const_eval(m), Some(42));
        let x = p.symbols.intern("x");
        let v = p.alloc_expr(ExprKind::Var(x), s);
        let n = p.alloc_expr(ExprKind::Binary(BinOp::Add, m, v), s);
        assert_eq!(p.const_eval(n), None);
        let z = p.alloc_expr(ExprKind::Const(0), s);
        let d = p.alloc_expr(ExprKind::Binary(BinOp::Div, a, z), s);
        assert_eq!(p.const_eval(d), None);
    }

    #[test]
    fn expr_uses_collects_scalars_and_arrays() {
        let mut p = Program::new();
        let s = p.alloc_stmt(StmtKind::Write { value: ExprId(0) });
        let a = p.symbols.intern("A");
        let i = p.symbols.intern("i");
        let vi = p.alloc_expr(ExprKind::Var(i), s);
        let idx = p.alloc_expr(ExprKind::Index(a, vec![vi]), s);
        let mut uses = Vec::new();
        p.expr_uses(idx, &mut uses);
        assert!(uses.contains(&a));
        assert!(uses.contains(&i));
    }

    #[test]
    fn ancestors_and_enclosing_loops() {
        let (p, _s1, l) = mini();
        let body = p.block(Parent::Block(l, BlockRole::LoopBody)).clone();
        let inner = body[0];
        assert_eq!(p.ancestors(inner), vec![l]);
        assert_eq!(p.enclosing_loops(inner), vec![l]);
        assert!(p.is_ancestor(l, inner));
        assert!(!p.is_ancestor(inner, l));
    }

    #[test]
    fn siblings() {
        let (p, s1, l) = mini();
        assert_eq!(p.next_sibling(s1), Some(l));
        assert_eq!(p.prev_sibling(l), Some(s1));
        assert_eq!(p.prev_sibling(s1), None);
        assert_eq!(p.next_sibling(l), None);
    }
}
