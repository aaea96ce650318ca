//! Columnar encoding of a [`Relation`]: per-attribute typed columns over the
//! compact value encoding of [`mahif_expr::vector`].
//!
//! The row [`Relation`] stays the API/wire type; [`Relation::to_columnar`]
//! and [`ColumnarRelation::to_rows`] convert losslessly at the engine
//! boundary. Conversion is *fallible* by design: a column whose values mix
//! runtime types (legal in the row model, where a `Value` is self-describing)
//! has no typed encoding, and the engine simply keeps such relations on the
//! row path.

use std::sync::Arc;

use mahif_expr::vector::{BatchSchema, Column, ColumnBuilder, StrPool, VType};

use crate::relation::Relation;
use crate::schema::SchemaRef;
use crate::tuple::Tuple;

/// A relation stored column-wise: one typed [`Column`] (with validity bitmap)
/// per attribute, strings interned into a shared [`StrPool`].
///
/// Columns are `Arc`-shared so consumers (reenactment batches) can pass
/// untouched columns through statements without copying.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    /// The row schema this encoding was derived from.
    pub schema: SchemaRef,
    /// One column per attribute, in schema order.
    pub columns: Vec<Arc<Column>>,
    /// Interned strings the columns index into.
    pub pool: StrPool,
    len: usize,
}

impl ColumnarRelation {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column names and *runtime* types (which may differ from the declared
    /// schema dtypes when the data does).
    pub fn batch_schema(&self) -> BatchSchema {
        BatchSchema::new(
            self.schema
                .attributes
                .iter()
                .zip(&self.columns)
                .map(|(a, c)| (a.name.clone(), c.vtype()))
                .collect(),
        )
    }

    /// True when every column's runtime type matches its declared schema
    /// dtype (all-NULL columns match anything).
    pub fn matches_declared_types(&self) -> bool {
        use mahif_expr::DataType;
        self.schema
            .attributes
            .iter()
            .zip(&self.columns)
            .all(|(a, c)| {
                matches!(
                    (a.dtype, c.vtype()),
                    (_, VType::Null)
                        | (DataType::Int, VType::Int)
                        | (DataType::Str, VType::Str)
                        | (DataType::Bool, VType::Bool)
                )
            })
    }

    /// Decode back into a row [`Relation`] (lossless: values compare and hash
    /// identically to the originals; strings come back as clones of the
    /// pooled `Arc<str>`s).
    pub fn to_rows(&self) -> Relation {
        let tuples = (0..self.len)
            .map(|i| {
                Tuple::new(
                    self.columns
                        .iter()
                        .map(|c| c.value_at(i, &self.pool))
                        .collect(),
                )
            })
            .collect();
        Relation::new(Arc::clone(&self.schema), tuples)
            .expect("columnar rows match their own schema arity")
    }

    /// Approximate heap footprint, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let cells = self.len * self.columns.len();
        cells * 9 + self.pool.len() * 24
    }
}

impl Relation {
    /// Encode this relation column-wise, in one row-major pass over its
    /// tuples (strings are pooled in row order). Returns `None` when some
    /// column mixes runtime types and therefore has no typed encoding;
    /// callers keep such relations on the row path.
    pub fn to_columnar(&self) -> Option<ColumnarRelation> {
        let mut pool = StrPool::new();
        let mut builders: Vec<ColumnBuilder> = (0..self.schema.arity())
            .map(|_| ColumnBuilder::with_capacity(self.len()))
            .collect();
        for t in self.iter() {
            for (builder, v) in builders.iter_mut().zip(&t.values) {
                if !builder.push(v, &mut pool) {
                    return None;
                }
            }
        }
        Some(ColumnarRelation {
            schema: Arc::clone(&self.schema),
            columns: builders.into_iter().map(|b| Arc::new(b.finish())).collect(),
            pool,
            len: self.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use mahif_expr::{DataType, Value};

    fn sample() -> Relation {
        let schema = Schema::shared(
            "orders",
            vec![
                Attribute::new("id", DataType::Int),
                Attribute::new("country", DataType::Str),
                Attribute::new("fee", DataType::Int),
            ],
        );
        let mut r = Relation::empty(schema);
        r.insert_values([Value::int(1), Value::str("UK"), Value::int(20)])
            .unwrap();
        r.insert_values([Value::int(2), Value::str("US"), Value::Null])
            .unwrap();
        r.insert_values([Value::Null, Value::str("UK"), Value::int(7)])
            .unwrap();
        r.insert_values([Value::int(4), Value::Null, Value::int(0)])
            .unwrap();
        r
    }

    #[test]
    fn round_trip_is_lossless_and_ordered() {
        let r = sample();
        let c = r.to_columnar().expect("homogeneous columns");
        assert_eq!(c.len(), 4);
        let back = c.to_rows();
        assert_eq!(back, r);
        // Repeated strings share one pooled entry.
        assert_eq!(c.pool.len(), 2);
        assert!(c.matches_declared_types());
    }

    #[test]
    fn round_trip_with_two_string_columns_and_late_types() {
        // Two string columns share one pool, filled in row order; the
        // second column's type is fixed only after two NULL rows.
        let schema = Schema::shared(
            "t",
            vec![
                Attribute::new("a", DataType::Str),
                Attribute::new("b", DataType::Str),
                Attribute::new("c", DataType::Bool),
            ],
        );
        let mut r = Relation::empty(schema);
        for (a, b, c) in [
            (Value::str("x"), Value::Null, Value::Null),
            (Value::str("y"), Value::Null, Value::Bool(true)),
            (Value::str("x"), Value::str("y"), Value::Null),
            (Value::Null, Value::str("z"), Value::Bool(false)),
        ] {
            r.insert_values([a, b, c]).unwrap();
        }
        let c = r.to_columnar().expect("homogeneous columns");
        assert_eq!(c.pool.len(), 3);
        assert!(c.matches_declared_types());
        assert_eq!(c.to_rows(), r);
        // Each column's type is fixed by its first non-NULL value, and
        // its validity bits mark the non-NULL rows.
        let expected = [
            (VType::Str, [true, true, true, false]),
            (VType::Str, [false, false, true, true]),
            (VType::Bool, [false, true, false, true]),
        ];
        for (col, (vtype, valid)) in c.columns.iter().zip(expected) {
            assert_eq!(col.vtype(), vtype);
            assert_eq!((0..4).map(|i| col.valid.get(i)).collect::<Vec<_>>(), valid);
        }
    }

    #[test]
    fn mixed_type_column_refuses_encoding() {
        let schema = Schema::shared("t", vec![Attribute::new("x", DataType::Int)]);
        let mut r = Relation::empty(schema);
        r.insert_values([Value::int(1)]).unwrap();
        r.insert_values([Value::str("oops")]).unwrap();
        assert!(r.to_columnar().is_none());
    }

    #[test]
    fn runtime_type_drift_is_detected() {
        // Declared Int but stored as Str: encodes fine, but the drift is
        // visible to callers that need declared/runtime agreement.
        let schema = Schema::shared("t", vec![Attribute::new("x", DataType::Int)]);
        let mut r = Relation::empty(schema);
        r.insert_values([Value::str("a")]).unwrap();
        let c = r.to_columnar().unwrap();
        assert!(!c.matches_declared_types());
    }

    #[test]
    fn empty_and_all_null_relations_encode() {
        let schema = Schema::shared("t", vec![Attribute::new("x", DataType::Int)]);
        let r = Relation::empty(Arc::clone(&schema));
        let c = r.to_columnar().unwrap();
        assert!(c.is_empty());
        assert_eq!(c.to_rows(), r);

        let mut nulls = Relation::empty(schema);
        nulls.insert_values([Value::Null]).unwrap();
        nulls.insert_values([Value::Null]).unwrap();
        let c = nulls.to_columnar().unwrap();
        assert!(c.matches_declared_types());
        assert_eq!(c.to_rows(), nulls);
    }
}
