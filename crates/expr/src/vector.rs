//! Columnar batch evaluation: compact value encodings and a flat post-order
//! expression compiler evaluated column-at-a-time.
//!
//! The row-oriented evaluator ([`crate::eval`]) walks the expression tree once
//! per tuple; reenacting a history evaluates the same handful of expressions
//! thousands of times over. This module provides the vectorized alternative:
//!
//! * [`Column`] — a typed column (`i64` / interned string id / bool) with a
//!   validity [`Bitmap`] for NULLs, plus an all-NULL encoding;
//! * [`StrPool`] — the string interner columns index into;
//! * [`compile`] — translate an [`Expr`] into a flat post-order [`Compiled`]
//!   program (type-checked against a [`BatchSchema`]; anything inexpressible
//!   fails compilation and the caller falls back to the row path);
//! * [`eval_batch`] — run a program over a batch restricted to a selection
//!   vector, producing a dense [`VecVal`];
//! * [`select_where`] — predicate evaluation as selection-vector narrowing,
//!   with short-circuit AND/OR that only skips statically infallible operands.
//!
//! # Equivalence contract
//!
//! The vectorized path must never *succeed* where the row path would error,
//! because callers discard the columnar attempt and re-run the row path on any
//! error (so the row path's result — or error — is always authoritative).
//! Three mechanisms enforce this:
//!
//! 1. **Compile-time typing.** Columns are homogeneously typed, so
//!    `TypeMismatch` / `NotACondition` / unbound-name errors are decidable at
//!    compile time; [`compile`] rejects and the caller falls back wholesale.
//! 2. **Superset evaluation.** The only data-dependent runtime errors left are
//!    arithmetic ([`ExprError::DivisionByZero`] / [`ExprError::Overflow`]).
//!    Kernels evaluate *both* branches of `IF-THEN-ELSE` and both operands of
//!    `AND`/`OR` (mirroring the row path's non-short-circuit Kleene
//!    semantics), so they observe a superset of the values the row path does.
//! 3. **Gated narrowing.** [`select_where`] skips an `AND`/`OR` operand on
//!    already-decided rows only when that operand contains no arithmetic
//!    ([`contains_arith`]) and therefore cannot raise on the skipped rows.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::ExprError;
use crate::expr::{ArithOp, CmpOp, Expr};
use crate::value::Value;

/// Runtime type of a column or intermediate vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VType {
    /// 64-bit integers.
    Int,
    /// Interned strings (ids into a [`StrPool`]).
    Str,
    /// Booleans.
    Bool,
    /// Every row is NULL (type unknown).
    Null,
}

/// A packed validity bitmap: bit `i` set means row `i` is non-NULL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut b = Bitmap {
            words: vec![word; len.div_ceil(64)],
            len,
        };
        if value {
            b.clear_tail();
        }
        b
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Append a bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        let i = self.len;
        self.len += 1;
        self.set(i, v);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// String interner: columns store dense `u32` ids into this pool.
///
/// Ids are assigned in first-seen order, so id equality is string equality
/// (the fast path for `=` / `<>`) but ordering comparisons go through the
/// pooled `Arc<str>`s.
#[derive(Debug, Clone, Default)]
pub struct StrPool {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("string pool overflow");
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), id);
        id
    }

    /// Look up a pooled string by id.
    #[inline]
    pub fn get(&self, id: u32) -> &Arc<str> {
        &self.strings[id as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no strings are pooled.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Physical storage of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// 64-bit integers (garbage where invalid).
    Int(Vec<i64>),
    /// Interned string ids (garbage where invalid).
    Str(Vec<u32>),
    /// Booleans (garbage where invalid).
    Bool(Vec<bool>),
    /// Every row NULL; the payload is the row count.
    Null(usize),
}

/// Builds a [`Column`] one value at a time, so a row relation can be
/// encoded in one row-major pass over its tuples (see
/// `Relation::to_columnar`). The column stays all-NULL until its first
/// non-NULL value fixes the type; a later value of another type is a
/// mismatch. NULL rows hold `0` / `false`.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    valid: Bitmap,
    capacity: usize,
}

impl ColumnBuilder {
    /// An empty builder with room for `capacity` rows.
    pub fn with_capacity(capacity: usize) -> Self {
        ColumnBuilder {
            data: ColumnData::Null(0),
            valid: Bitmap {
                words: Vec::with_capacity(capacity.div_ceil(64)),
                len: 0,
            },
            capacity,
        }
    }

    /// Appends `v`, interning a string into `pool`. Returns `false` (and
    /// appends nothing) when `v`'s runtime type differs from the column's.
    pub fn push(&mut self, v: &Value, pool: &mut StrPool) -> bool {
        match (&mut self.data, v) {
            (data, Value::Null) => {
                match data {
                    ColumnData::Int(out) => out.push(0),
                    ColumnData::Str(out) => out.push(0),
                    ColumnData::Bool(out) => out.push(false),
                    ColumnData::Null(n) => *n += 1,
                }
                self.valid.push(false);
                return true;
            }
            (ColumnData::Int(out), Value::Int(x)) => out.push(*x),
            (ColumnData::Str(out), Value::Str(s)) => out.push(pool.intern(s)),
            (ColumnData::Bool(out), Value::Bool(b)) => out.push(*b),
            (ColumnData::Null(nulls), v) => {
                let (nulls, capacity) = (*nulls, self.capacity.max(*nulls + 1));
                self.data = match v {
                    Value::Int(x) => {
                        let mut out = Vec::with_capacity(capacity);
                        out.resize(nulls, 0);
                        out.push(*x);
                        ColumnData::Int(out)
                    }
                    Value::Str(s) => {
                        let mut out = Vec::with_capacity(capacity);
                        out.resize(nulls, 0);
                        out.push(pool.intern(s));
                        ColumnData::Str(out)
                    }
                    Value::Bool(b) => {
                        let mut out = Vec::with_capacity(capacity);
                        out.resize(nulls, false);
                        out.push(*b);
                        ColumnData::Bool(out)
                    }
                    Value::Null => unreachable!("NULL is matched above"),
                };
            }
            _ => return false,
        }
        self.valid.push(true);
        true
    }

    /// The column built so far.
    pub fn finish(self) -> Column {
        Column {
            data: self.data,
            valid: self.valid,
        }
    }
}

/// A typed column with validity bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The value payload.
    pub data: ColumnData,
    /// Bit `i` set ⇔ row `i` is non-NULL.
    pub valid: Bitmap,
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Null(n) => *n,
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runtime type of the column.
    pub fn vtype(&self) -> VType {
        match &self.data {
            ColumnData::Int(_) => VType::Int,
            ColumnData::Str(_) => VType::Str,
            ColumnData::Bool(_) => VType::Bool,
            ColumnData::Null(_) => VType::Null,
        }
    }

    /// Decode row `i` back into a [`Value`] (lossless; pooled strings come
    /// back as clones of the interned `Arc<str>`).
    pub fn value_at(&self, i: usize, pool: &StrPool) -> Value {
        if !matches!(self.data, ColumnData::Null(_)) && !self.valid.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Str(v) => Value::Str(Arc::clone(pool.get(v[i]))),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Null(_) => Value::Null,
        }
    }

    /// Materialize the rows selected by `sel` as a new dense column.
    pub fn gather(&self, sel: &[u32]) -> Column {
        let n = sel.len();
        let mut valid = Bitmap::filled(n, false);
        let data = match &self.data {
            ColumnData::Null(_) => ColumnData::Null(n),
            ColumnData::Int(v) => {
                let mut out = vec![0i64; n];
                for (i, &p) in sel.iter().enumerate() {
                    out[i] = v[p as usize];
                    valid.set(i, self.valid.get(p as usize));
                }
                ColumnData::Int(out)
            }
            ColumnData::Str(v) => {
                let mut out = vec![0u32; n];
                for (i, &p) in sel.iter().enumerate() {
                    out[i] = v[p as usize];
                    valid.set(i, self.valid.get(p as usize));
                }
                ColumnData::Str(out)
            }
            ColumnData::Bool(v) => {
                let mut out = vec![false; n];
                for (i, &p) in sel.iter().enumerate() {
                    out[i] = v[p as usize];
                    valid.set(i, self.valid.get(p as usize));
                }
                ColumnData::Bool(out)
            }
        };
        Column { data, valid }
    }
}

/// Names and runtime types of a batch's columns, in schema order.
#[derive(Debug, Clone)]
pub struct BatchSchema {
    attrs: Vec<(String, VType)>,
}

impl BatchSchema {
    /// Build from `(name, type)` pairs in column order.
    pub fn new(attrs: Vec<(String, VType)>) -> Self {
        BatchSchema { attrs }
    }

    /// Resolve an attribute name to `(column index, type)`. Mirrors
    /// `Schema::index_of`: the first match wins.
    pub fn lookup(&self, name: &str) -> Option<(usize, VType)> {
        self.attrs
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i, self.attrs[i].1))
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Overwrite the runtime type of column `idx` (after an UPDATE recomputes
    /// it).
    pub fn set_type(&mut self, idx: usize, t: VType) {
        self.attrs[idx].1 = t;
    }
}

/// One instruction of a compiled post-order program.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Instr {
    /// Push column `idx` gathered at the selection.
    Col(usize),
    ConstInt(i64),
    ConstStr(u32),
    ConstBool(bool),
    ConstNull,
    Arith(ArithOp),
    Cmp(CmpOp),
    And,
    Or,
    Not,
    IsNull,
    /// Pops else, then, cond; blends per row.
    Ite,
}

/// A flat post-order program produced by [`compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    instrs: Vec<Instr>,
    out: VType,
}

impl Compiled {
    /// Runtime type of the program's result.
    pub fn out_type(&self) -> VType {
        self.out
    }
}

fn unify(a: VType, b: VType) -> Option<VType> {
    match (a, b) {
        (VType::Null, t) | (t, VType::Null) => Some(t),
        (x, y) if x == y => Some(x),
        _ => None,
    }
}

/// Compile `expr` against `schema`, interning string constants into `pool`.
///
/// Returns `None` for anything the vectorized evaluator cannot express with
/// row-path-identical semantics: unbound attributes, symbolic variables,
/// operands whose column types would make the row path raise `TypeMismatch`
/// on some row (e.g. arithmetic over strings, cross-type comparisons), or
/// `IF-THEN-ELSE` branches of differing types. Callers fall back to the row
/// path, which reproduces the exact per-row behavior (including any error).
pub fn compile(expr: &Expr, schema: &BatchSchema, pool: &mut StrPool) -> Option<Compiled> {
    let mut instrs = Vec::with_capacity(expr.size());
    let out = emit(expr, schema, pool, &mut instrs)?;
    Some(Compiled { instrs, out })
}

fn emit(
    expr: &Expr,
    schema: &BatchSchema,
    pool: &mut StrPool,
    instrs: &mut Vec<Instr>,
) -> Option<VType> {
    match expr {
        Expr::Attr(name) => {
            let (idx, t) = schema.lookup(name)?;
            instrs.push(Instr::Col(idx));
            Some(t)
        }
        Expr::Var(_) => None,
        Expr::Const(v) => {
            let (i, t) = match v {
                Value::Int(x) => (Instr::ConstInt(*x), VType::Int),
                Value::Str(s) => (Instr::ConstStr(pool.intern(s)), VType::Str),
                Value::Bool(b) => (Instr::ConstBool(*b), VType::Bool),
                Value::Null => (Instr::ConstNull, VType::Null),
            };
            instrs.push(i);
            Some(t)
        }
        Expr::Arith { op, left, right } => {
            let tl = emit(left, schema, pool, instrs)?;
            let tr = emit(right, schema, pool, instrs)?;
            // The row path returns NULL when either operand is NULL *before*
            // type-checking, so an all-NULL operand is fine whatever the other
            // side is — but a typed non-Int operand would raise TypeMismatch
            // on any row where both sides are non-NULL.
            if tl == VType::Null || tr == VType::Null {
                instrs.push(Instr::Arith(*op));
                return Some(VType::Null);
            }
            if tl != VType::Int || tr != VType::Int {
                return None;
            }
            instrs.push(Instr::Arith(*op));
            Some(VType::Int)
        }
        Expr::Cmp { op, left, right } => {
            let tl = emit(left, schema, pool, instrs)?;
            let tr = emit(right, schema, pool, instrs)?;
            if tl == VType::Null || tr == VType::Null {
                instrs.push(Instr::Cmp(*op));
                return Some(VType::Null);
            }
            // Cross-type comparisons order by type rank in the row path;
            // rare enough to fall back rather than replicate.
            if tl != tr {
                return None;
            }
            instrs.push(Instr::Cmp(*op));
            Some(VType::Bool)
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            let tl = emit(l, schema, pool, instrs)?;
            let tr = emit(r, schema, pool, instrs)?;
            if !matches!(tl, VType::Bool | VType::Null) || !matches!(tr, VType::Bool | VType::Null)
            {
                return None;
            }
            instrs.push(if matches!(expr, Expr::And(..)) {
                Instr::And
            } else {
                Instr::Or
            });
            if tl == VType::Null && tr == VType::Null {
                Some(VType::Null)
            } else {
                Some(VType::Bool)
            }
        }
        Expr::Not(e) => {
            let t = emit(e, schema, pool, instrs)?;
            if !matches!(t, VType::Bool | VType::Null) {
                return None;
            }
            instrs.push(Instr::Not);
            Some(t)
        }
        Expr::IsNull(e) => {
            emit(e, schema, pool, instrs)?;
            instrs.push(Instr::IsNull);
            Some(VType::Bool)
        }
        Expr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        } => {
            let tc = emit(cond, schema, pool, instrs)?;
            if !matches!(tc, VType::Bool | VType::Null) {
                return None;
            }
            let tt = emit(then_branch, schema, pool, instrs)?;
            let te = emit(else_branch, schema, pool, instrs)?;
            let out = unify(tt, te)?;
            instrs.push(Instr::Ite);
            Some(out)
        }
    }
}

/// A dense intermediate vector of length `sel.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VecVal {
    /// Integers with validity.
    Int {
        /// Values (garbage where invalid).
        v: Vec<i64>,
        /// Validity bits.
        valid: Bitmap,
    },
    /// Interned string ids with validity.
    Str {
        /// Pool ids (garbage where invalid).
        v: Vec<u32>,
        /// Validity bits.
        valid: Bitmap,
    },
    /// Booleans with validity (three-valued logic: invalid = unknown).
    Bool {
        /// Values (garbage where invalid).
        v: Vec<bool>,
        /// Validity bits.
        valid: Bitmap,
    },
    /// Every row NULL.
    Null(usize),
}

impl VecVal {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            VecVal::Int { v, .. } => v.len(),
            VecVal::Str { v, .. } => v.len(),
            VecVal::Bool { v, .. } => v.len(),
            VecVal::Null(n) => *n,
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Three-valued boolean at row `i` (`None` = NULL). Only meaningful for
    /// `Bool`/`Null` vectors.
    #[inline]
    pub fn tristate(&self, i: usize) -> Option<bool> {
        match self {
            VecVal::Bool { v, valid } => valid.get(i).then(|| v[i]),
            VecVal::Null(_) => None,
            _ => None,
        }
    }

    #[inline]
    fn int_at(&self, i: usize) -> Option<i64> {
        match self {
            VecVal::Int { v, valid } => valid.get(i).then(|| v[i]),
            _ => None,
        }
    }

    #[inline]
    fn str_at(&self, i: usize) -> Option<u32> {
        match self {
            VecVal::Str { v, valid } => valid.get(i).then(|| v[i]),
            _ => None,
        }
    }

    /// Convert into column storage (dense, selection already applied).
    pub fn into_column(self) -> Column {
        match self {
            VecVal::Int { v, valid } => Column {
                data: ColumnData::Int(v),
                valid,
            },
            VecVal::Str { v, valid } => Column {
                data: ColumnData::Str(v),
                valid,
            },
            VecVal::Bool { v, valid } => Column {
                data: ColumnData::Bool(v),
                valid,
            },
            VecVal::Null(n) => Column {
                data: ColumnData::Null(n),
                valid: Bitmap::filled(n, false),
            },
        }
    }

    /// Decode row `i` as a [`Value`].
    pub fn value_at(&self, i: usize, pool: &StrPool) -> Value {
        match self {
            VecVal::Int { v, valid } => {
                if valid.get(i) {
                    Value::Int(v[i])
                } else {
                    Value::Null
                }
            }
            VecVal::Str { v, valid } => {
                if valid.get(i) {
                    Value::Str(Arc::clone(pool.get(v[i])))
                } else {
                    Value::Null
                }
            }
            VecVal::Bool { v, valid } => {
                if valid.get(i) {
                    Value::Bool(v[i])
                } else {
                    Value::Null
                }
            }
            VecVal::Null(_) => Value::Null,
        }
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn bool_vec(n: usize, f: impl Fn(usize) -> Option<bool>) -> VecVal {
    let mut v = vec![false; n];
    let mut valid = Bitmap::filled(n, false);
    for (i, slot) in v.iter_mut().enumerate() {
        if let Some(b) = f(i) {
            *slot = b;
            valid.set(i, true);
        }
    }
    VecVal::Bool { v, valid }
}

fn apply_cmp(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Neq => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// Evaluate a compiled program over `cols` restricted to the selection `sel`,
/// producing a dense vector of length `sel.len()`.
///
/// Errors only on arithmetic faults (`DivisionByZero` / `Overflow`), and only
/// on rows where both operands are non-NULL — exactly the rows where the row
/// path would raise. Callers treat any error as "fall back to the row path".
pub fn eval_batch(
    program: &Compiled,
    cols: &[Arc<Column>],
    pool: &StrPool,
    sel: &[u32],
) -> Result<VecVal, ExprError> {
    let n = sel.len();
    let mut stack: Vec<VecVal> = Vec::with_capacity(8);
    for instr in &program.instrs {
        match instr {
            Instr::Col(idx) => {
                let col = &cols[*idx];
                let v = match &col.data {
                    ColumnData::Null(_) => VecVal::Null(n),
                    ColumnData::Int(data) => {
                        let mut out = vec![0i64; n];
                        let mut valid = Bitmap::filled(n, false);
                        for (i, &p) in sel.iter().enumerate() {
                            out[i] = data[p as usize];
                            valid.set(i, col.valid.get(p as usize));
                        }
                        VecVal::Int { v: out, valid }
                    }
                    ColumnData::Str(data) => {
                        let mut out = vec![0u32; n];
                        let mut valid = Bitmap::filled(n, false);
                        for (i, &p) in sel.iter().enumerate() {
                            out[i] = data[p as usize];
                            valid.set(i, col.valid.get(p as usize));
                        }
                        VecVal::Str { v: out, valid }
                    }
                    ColumnData::Bool(data) => {
                        let mut out = vec![false; n];
                        let mut valid = Bitmap::filled(n, false);
                        for (i, &p) in sel.iter().enumerate() {
                            out[i] = data[p as usize];
                            valid.set(i, col.valid.get(p as usize));
                        }
                        VecVal::Bool { v: out, valid }
                    }
                };
                stack.push(v);
            }
            Instr::ConstInt(k) => stack.push(VecVal::Int {
                v: vec![*k; n],
                valid: Bitmap::filled(n, true),
            }),
            Instr::ConstStr(id) => stack.push(VecVal::Str {
                v: vec![*id; n],
                valid: Bitmap::filled(n, true),
            }),
            Instr::ConstBool(b) => stack.push(VecVal::Bool {
                v: vec![*b; n],
                valid: Bitmap::filled(n, true),
            }),
            Instr::ConstNull => stack.push(VecVal::Null(n)),
            Instr::Arith(op) => {
                let r = stack.pop().expect("stack underflow");
                let l = stack.pop().expect("stack underflow");
                if matches!(l, VecVal::Null(_)) || matches!(r, VecVal::Null(_)) {
                    stack.push(VecVal::Null(n));
                    continue;
                }
                let mut v = vec![0i64; n];
                let mut valid = Bitmap::filled(n, false);
                for (i, slot) in v.iter_mut().enumerate() {
                    if let (Some(a), Some(b)) = (l.int_at(i), r.int_at(i)) {
                        let res = match op {
                            ArithOp::Add => a.checked_add(b).ok_or(ExprError::Overflow)?,
                            ArithOp::Sub => a.checked_sub(b).ok_or(ExprError::Overflow)?,
                            ArithOp::Mul => a.checked_mul(b).ok_or(ExprError::Overflow)?,
                            ArithOp::Div => {
                                if b == 0 {
                                    return Err(ExprError::DivisionByZero);
                                }
                                a.checked_div(b).ok_or(ExprError::Overflow)?
                            }
                        };
                        *slot = res;
                        valid.set(i, true);
                    }
                }
                stack.push(VecVal::Int { v, valid });
            }
            Instr::Cmp(op) => {
                let r = stack.pop().expect("stack underflow");
                let l = stack.pop().expect("stack underflow");
                let out = match (&l, &r) {
                    (VecVal::Null(_), _) | (_, VecVal::Null(_)) => VecVal::Null(n),
                    (VecVal::Int { .. }, VecVal::Int { .. }) => {
                        bool_vec(n, |i| match (l.int_at(i), r.int_at(i)) {
                            (Some(a), Some(b)) => Some(apply_cmp(*op, a.cmp(&b))),
                            _ => None,
                        })
                    }
                    (VecVal::Str { .. }, VecVal::Str { .. }) => bool_vec(n, |i| {
                        match (l.str_at(i), r.str_at(i)) {
                            (Some(a), Some(b)) => Some(match op {
                                // Pool ids are deduplicated: id equality is
                                // string equality.
                                CmpOp::Eq => a == b,
                                CmpOp::Neq => a != b,
                                _ => apply_cmp(*op, pool.get(a).as_ref().cmp(pool.get(b).as_ref())),
                            }),
                            _ => None,
                        }
                    }),
                    (VecVal::Bool { .. }, VecVal::Bool { .. }) => {
                        bool_vec(n, |i| match (l.tristate(i), r.tristate(i)) {
                            (Some(a), Some(b)) => Some(apply_cmp(*op, a.cmp(&b))),
                            _ => None,
                        })
                    }
                    _ => unreachable!("compile type-checks comparison operands"),
                };
                stack.push(out);
            }
            Instr::And => {
                let r = stack.pop().expect("stack underflow");
                let l = stack.pop().expect("stack underflow");
                stack.push(bool_vec(n, |i| kleene_and(l.tristate(i), r.tristate(i))));
            }
            Instr::Or => {
                let r = stack.pop().expect("stack underflow");
                let l = stack.pop().expect("stack underflow");
                stack.push(bool_vec(n, |i| kleene_or(l.tristate(i), r.tristate(i))));
            }
            Instr::Not => {
                let e = stack.pop().expect("stack underflow");
                stack.push(match e {
                    VecVal::Null(_) => VecVal::Null(n),
                    other => bool_vec(n, |i| other.tristate(i).map(|b| !b)),
                });
            }
            Instr::IsNull => {
                let e = stack.pop().expect("stack underflow");
                let mut v = vec![false; n];
                for (i, slot) in v.iter_mut().enumerate() {
                    *slot = match &e {
                        VecVal::Int { valid, .. }
                        | VecVal::Str { valid, .. }
                        | VecVal::Bool { valid, .. } => !valid.get(i),
                        VecVal::Null(_) => true,
                    };
                }
                stack.push(VecVal::Bool {
                    v,
                    valid: Bitmap::filled(n, true),
                });
            }
            Instr::Ite => {
                let els = stack.pop().expect("stack underflow");
                let thn = stack.pop().expect("stack underflow");
                let cond = stack.pop().expect("stack underflow");
                stack.push(blend(&cond, thn, els, n));
            }
        }
    }
    let out = stack.pop().expect("program leaves one value");
    debug_assert!(stack.is_empty());
    Ok(out)
}

/// Blend `thn`/`els` per row: the row path takes the THEN branch exactly when
/// the condition evaluates to TRUE (NULL takes ELSE).
fn blend(cond: &VecVal, thn: VecVal, els: VecVal, n: usize) -> VecVal {
    let coerce = |v: VecVal, like: &VecVal| -> VecVal {
        match (&v, like) {
            (VecVal::Null(_), VecVal::Int { .. }) => VecVal::Int {
                v: vec![0; n],
                valid: Bitmap::filled(n, false),
            },
            (VecVal::Null(_), VecVal::Str { .. }) => VecVal::Str {
                v: vec![0; n],
                valid: Bitmap::filled(n, false),
            },
            (VecVal::Null(_), VecVal::Bool { .. }) => VecVal::Bool {
                v: vec![false; n],
                valid: Bitmap::filled(n, false),
            },
            _ => v,
        }
    };
    let thn = coerce(thn, &els);
    let els = coerce(els, &thn);
    let take_then = |i: usize| cond.tristate(i) == Some(true);
    match (thn, els) {
        (VecVal::Null(_), VecVal::Null(_)) => VecVal::Null(n),
        (
            VecVal::Int {
                v: tv,
                valid: tvalid,
            },
            VecVal::Int {
                v: ev,
                valid: evalid,
            },
        ) => {
            let mut v = vec![0i64; n];
            let mut valid = Bitmap::filled(n, false);
            for i in 0..n {
                let (val, ok) = if take_then(i) {
                    (tv[i], tvalid.get(i))
                } else {
                    (ev[i], evalid.get(i))
                };
                v[i] = val;
                valid.set(i, ok);
            }
            VecVal::Int { v, valid }
        }
        (
            VecVal::Str {
                v: tv,
                valid: tvalid,
            },
            VecVal::Str {
                v: ev,
                valid: evalid,
            },
        ) => {
            let mut v = vec![0u32; n];
            let mut valid = Bitmap::filled(n, false);
            for i in 0..n {
                let (val, ok) = if take_then(i) {
                    (tv[i], tvalid.get(i))
                } else {
                    (ev[i], evalid.get(i))
                };
                v[i] = val;
                valid.set(i, ok);
            }
            VecVal::Str { v, valid }
        }
        (
            VecVal::Bool {
                v: tv,
                valid: tvalid,
            },
            VecVal::Bool {
                v: ev,
                valid: evalid,
            },
        ) => {
            let mut v = vec![false; n];
            let mut valid = Bitmap::filled(n, false);
            for i in 0..n {
                let (val, ok) = if take_then(i) {
                    (tv[i], tvalid.get(i))
                } else {
                    (ev[i], evalid.get(i))
                };
                v[i] = val;
                valid.set(i, ok);
            }
            VecVal::Bool { v, valid }
        }
        _ => unreachable!("compile unifies branch types"),
    }
}

/// Error from the selection/evaluation entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VecError {
    /// The expression cannot be compiled for this batch; fall back.
    Unsupported,
    /// A runtime arithmetic fault; the row path will reproduce (or refine)
    /// it, so fall back.
    Runtime(ExprError),
}

/// True when `expr` contains arithmetic anywhere — the only source of
/// data-dependent runtime errors once a program compiles, and therefore the
/// gate for skipping an operand during selection narrowing.
pub fn contains_arith(expr: &Expr) -> bool {
    match expr {
        Expr::Arith { .. } => true,
        Expr::Attr(_) | Expr::Var(_) | Expr::Const(_) => false,
        Expr::Cmp { left, right, .. } => contains_arith(left) || contains_arith(right),
        Expr::And(l, r) | Expr::Or(l, r) => contains_arith(l) || contains_arith(r),
        Expr::Not(e) | Expr::IsNull(e) => contains_arith(e),
        Expr::IfThenElse {
            cond,
            then_branch,
            else_branch,
        } => contains_arith(cond) || contains_arith(then_branch) || contains_arith(else_branch),
    }
}

/// Narrow the selection `sel` to the rows where `expr` evaluates to exactly
/// `want` (NULL never matches — NULL-is-false filter semantics and their
/// negation both fall out of this).
///
/// `AND`/`OR` become selection-vector narrowing: the second operand is only
/// evaluated on rows the first left undecided — but an operand is skipped on
/// decided rows only when it [`contains_arith`]-free (the row path evaluates
/// both operands on every row, so a skipped fallible operand could hide an
/// error the row path would raise). `programs` counts the vectorized leaf
/// programs actually evaluated.
///
/// The caller must have verified the *whole* expression compiles (e.g. via
/// [`compile`]) before relying on narrowing: a skipped operand is never
/// compiled here, and an uncompilable subexpression means the row path might
/// raise a type error the columnar path would silently miss.
pub fn select_where(
    expr: &Expr,
    want: bool,
    schema: &BatchSchema,
    cols: &[Arc<Column>],
    pool: &mut StrPool,
    sel: &[u32],
    programs: &mut usize,
) -> Result<Vec<u32>, VecError> {
    match expr {
        Expr::Not(e) => select_where(e, !want, schema, cols, pool, sel, programs),
        Expr::And(l, r) if want => conj(expr, l, r, true, schema, cols, pool, sel, programs),
        Expr::And(l, r) => disj(expr, l, r, false, schema, cols, pool, sel, programs),
        Expr::Or(l, r) if want => disj(expr, l, r, true, schema, cols, pool, sel, programs),
        Expr::Or(l, r) => conj(expr, l, r, false, schema, cols, pool, sel, programs),
        _ => leaf_select(expr, want, schema, cols, pool, sel, programs),
    }
}

/// Rows where `l == want` AND `r == want` (AND-true / OR-false).
#[allow(clippy::too_many_arguments)]
fn conj(
    whole: &Expr,
    l: &Expr,
    r: &Expr,
    want: bool,
    schema: &BatchSchema,
    cols: &[Arc<Column>],
    pool: &mut StrPool,
    sel: &[u32],
    programs: &mut usize,
) -> Result<Vec<u32>, VecError> {
    let (first, second) = if !contains_arith(r) {
        (l, r)
    } else if !contains_arith(l) {
        (r, l)
    } else {
        // Both operands can raise: evaluate the full Kleene program over every
        // selected row, exactly like the row path.
        return leaf_select(whole, want, schema, cols, pool, sel, programs);
    };
    let narrowed = select_where(first, want, schema, cols, pool, sel, programs)?;
    select_where(second, want, schema, cols, pool, &narrowed, programs)
}

/// Rows where `l == want` OR `r == want` (OR-true / AND-false), preserving
/// input order.
#[allow(clippy::too_many_arguments)]
fn disj(
    whole: &Expr,
    l: &Expr,
    r: &Expr,
    want: bool,
    schema: &BatchSchema,
    cols: &[Arc<Column>],
    pool: &mut StrPool,
    sel: &[u32],
    programs: &mut usize,
) -> Result<Vec<u32>, VecError> {
    let (first, second) = if !contains_arith(r) {
        (l, r)
    } else if !contains_arith(l) {
        (r, l)
    } else {
        return leaf_select(whole, want, schema, cols, pool, sel, programs);
    };
    let hits = select_where(first, want, schema, cols, pool, sel, programs)?;
    let rest = sorted_minus(sel, &hits);
    let more = select_where(second, want, schema, cols, pool, &rest, programs)?;
    Ok(sorted_merge(&hits, &more))
}

/// `a \ b` for ascending slices.
fn sorted_minus(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() - b.len());
    let mut j = 0;
    for &x in a {
        if j < b.len() && b[j] == x {
            j += 1;
        } else {
            out.push(x);
        }
    }
    out
}

/// Merge two disjoint ascending slices.
fn sorted_merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[allow(clippy::too_many_arguments)]
fn leaf_select(
    expr: &Expr,
    want: bool,
    schema: &BatchSchema,
    cols: &[Arc<Column>],
    pool: &mut StrPool,
    sel: &[u32],
    programs: &mut usize,
) -> Result<Vec<u32>, VecError> {
    let program = compile(expr, schema, pool).ok_or(VecError::Unsupported)?;
    if !matches!(program.out_type(), VType::Bool | VType::Null) {
        // The row path would raise NotACondition on any row; fall back even
        // for empty selections so the behavior is decided in one place.
        return Err(VecError::Unsupported);
    }
    *programs += 1;
    let out = eval_batch(&program, cols, pool, sel).map_err(VecError::Runtime)?;
    let mut kept = Vec::with_capacity(sel.len());
    for (i, &p) in sel.iter().enumerate() {
        if out.tristate(i) == Some(want) {
            kept.push(p);
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::eval::{eval_condition, eval_expr, Bindings};
    use crate::expr::Expr;

    /// Row-path bindings over one row of the columnar fixture.
    struct RowView<'a> {
        names: &'a [&'a str],
        row: &'a [Value],
    }

    impl Bindings for RowView<'_> {
        fn attr(&self, name: &str) -> Option<Value> {
            self.names
                .iter()
                .position(|n| *n == name)
                .map(|i| self.row[i].clone())
        }

        fn var(&self, _name: &str) -> Option<Value> {
            None
        }
    }

    /// A 6-row batch with NULLs in every column.
    fn fixture() -> (Vec<&'static str>, Vec<Vec<Value>>) {
        let names = vec!["a", "b", "s", "f"];
        let rows = vec![
            vec![
                Value::int(1),
                Value::int(10),
                Value::str("uk"),
                Value::Bool(true),
            ],
            vec![
                Value::int(2),
                Value::Null,
                Value::str("us"),
                Value::Bool(false),
            ],
            vec![Value::Null, Value::int(30), Value::str("uk"), Value::Null],
            vec![
                Value::int(4),
                Value::int(40),
                Value::Null,
                Value::Bool(true),
            ],
            vec![Value::int(5), Value::int(0), Value::str("de"), Value::Null],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
        ];
        (names, rows)
    }

    fn build_batch(
        names: &[&str],
        rows: &[Vec<Value>],
    ) -> (BatchSchema, Vec<Arc<Column>>, StrPool) {
        let mut pool = StrPool::new();
        let mut cols = Vec::new();
        let mut attrs = Vec::new();
        for (c, name) in names.iter().enumerate() {
            let mut builder = ColumnBuilder::with_capacity(rows.len());
            for r in rows {
                assert!(builder.push(&r[c], &mut pool));
            }
            let col = builder.finish();
            attrs.push((name.to_string(), col.vtype()));
            cols.push(Arc::new(col));
        }
        (BatchSchema::new(attrs), cols, pool)
    }

    /// The batch filter keeps exactly the rows `eval_condition` accepts.
    fn assert_filter_matches_rows(cond: &Expr) {
        let (names, rows) = fixture();
        let (schema, cols, mut pool) = build_batch(&names, &rows);
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let mut programs = 0;
        let got = select_where(cond, true, &schema, &cols, &mut pool, &sel, &mut programs)
            .unwrap_or_else(|e| panic!("vectorized filter failed for {cond}: {e:?}"));
        let want: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, row)| eval_condition(cond, &RowView { names: &names, row }).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want, "filter disagreement for {cond}");
        assert!(programs > 0);
    }

    #[test]
    fn null_comparison_is_false_like_eval_condition() {
        // b is NULL on rows 1 and 5: NULL > 5 must not match.
        assert_filter_matches_rows(&gt(attr("b"), lit(5)));
        assert_filter_matches_rows(&eq(attr("s"), slit("uk")));
        assert_filter_matches_rows(&neq(attr("s"), slit("uk")));
    }

    #[test]
    fn three_valued_and_or_match_eval_condition() {
        let c1 = gt(attr("b"), lit(5)); // NULL on rows 1, 5
        let c2 = eq(attr("s"), slit("uk")); // NULL on rows 3, 5
        assert_filter_matches_rows(&and(c1.clone(), c2.clone()));
        assert_filter_matches_rows(&or(c1.clone(), c2.clone()));
        // NOT over NULL stays NULL (excluded), and De Morgan shapes exercise
        // the want=false narrowing paths.
        assert_filter_matches_rows(&not(and(c1.clone(), c2.clone())));
        assert_filter_matches_rows(&not(or(c1, c2)));
        assert_filter_matches_rows(&is_null(attr("b")));
        assert_filter_matches_rows(&not(is_null(attr("b"))));
    }

    #[test]
    fn arith_and_ite_match_row_path_per_row() {
        let (names, rows) = fixture();
        let (schema, cols, mut pool) = build_batch(&names, &rows);
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let exprs = [
            add(attr("a"), attr("b")),
            mul(attr("a"), lit(3)),
            ite(gt(attr("b"), lit(5)), add(attr("a"), lit(100)), attr("a")),
            ite(eq(attr("s"), slit("uk")), slit("gb"), attr("s")),
        ];
        for e in &exprs {
            let program = compile(e, &schema, &mut pool).expect("compiles");
            let out = eval_batch(&program, &cols, &pool, &sel).unwrap();
            for (i, row) in rows.iter().enumerate() {
                let want = eval_expr(e, &RowView { names: &names, row }).unwrap();
                assert_eq!(out.value_at(i, &pool), want, "row {i} of {e}");
            }
        }
    }

    #[test]
    fn division_by_zero_errors_like_row_path() {
        let (names, rows) = fixture();
        let (schema, cols, mut pool) = build_batch(&names, &rows);
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        // b is 0 on row 4: the row path raises there, so the batch must too.
        let e = div(attr("a"), attr("b"));
        let program = compile(&e, &schema, &mut pool).unwrap();
        assert_eq!(
            eval_batch(&program, &cols, &pool, &sel),
            Err(ExprError::DivisionByZero)
        );
        // Restricted to rows without the zero divisor it succeeds.
        let out = eval_batch(&program, &cols, &pool, &[0, 1, 2]).unwrap();
        assert_eq!(out.value_at(0, &pool), Value::int(0)); // 1 / 10
        assert_eq!(out.value_at(1, &pool), Value::Null); // 2 / NULL
    }

    #[test]
    fn narrowing_does_not_skip_fallible_operands() {
        let (names, rows) = fixture();
        let (schema, cols, mut pool) = build_batch(&names, &rows);
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        // Left operand is false everywhere; right divides by b which is 0 on
        // row 4. The row path evaluates both operands of AND on every row, so
        // it raises — narrowing must not hide that.
        let e = and(eq(attr("a"), lit(-1)), gt(div(lit(10), attr("b")), lit(0)));
        let mut programs = 0;
        let got = select_where(&e, true, &schema, &cols, &mut pool, &sel, &mut programs);
        assert_eq!(got, Err(VecError::Runtime(ExprError::DivisionByZero)));
    }

    #[test]
    fn uncompilable_expressions_are_rejected() {
        let (names, rows) = fixture();
        let (schema, _cols, mut pool) = build_batch(&names, &rows);
        // Unbound attribute, symbolic variable, arithmetic over strings,
        // cross-type comparison, non-boolean AND operand.
        for e in [
            eq(attr("missing"), lit(1)),
            eq(var("x"), lit(1)),
            add(attr("s"), lit(1)),
            eq(attr("a"), slit("uk")),
            and(attr("a"), attr("f")),
        ] {
            assert!(compile(&e, &schema, &mut pool).is_none(), "{e} compiled");
        }
        // All-NULL operands unify with anything, like the row path's
        // null-before-type-check ordering.
        assert!(compile(&add(attr("a"), null()), &schema, &mut pool).is_some());
        assert!(compile(&eq(attr("s"), null()), &schema, &mut pool).is_some());
    }

    #[test]
    fn column_round_trips_values() {
        let (names, rows) = fixture();
        let (_, cols, pool) = build_batch(&names, &rows);
        for (c, col) in cols.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(col.value_at(i, &pool), row[c]);
            }
        }
        // A value of another type than the column's is refused.
        let (mut builder, mut pool) = (ColumnBuilder::with_capacity(2), StrPool::new());
        assert!(builder.push(&Value::int(1), &mut pool));
        assert!(!builder.push(&Value::str("x"), &mut pool));
        assert_eq!(builder.finish().len(), 1);
    }

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::filled(70, false);
        b.set(0, true);
        b.set(69, true);
        assert!(b.get(0) && b.get(69) && !b.get(35));
        assert_eq!(b.count_ones(), 2);
        let full = Bitmap::filled(70, true);
        assert_eq!(full.count_ones(), 70);
        let mut grown = Bitmap::filled(0, false);
        for i in 0..130 {
            grown.push(i % 3 == 0);
        }
        assert_eq!(grown.len(), 130);
        assert!(grown.get(129) && !grown.get(128));
    }
}
