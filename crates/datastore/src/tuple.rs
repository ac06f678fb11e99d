//! Rows (tuples) and named-row views used throughout the executor and the
//! content translator.

use crate::schema::TableSchema;
use crate::value::{GroupKey, Value};
use std::fmt;
use std::sync::Arc;

/// A single tuple: an ordered list of values matching a relation's columns.
///
/// The values sit behind a shared, immutable handle, so cloning a row (a
/// scan handing out a table's rows, a hash-join build side, an exchange, a
/// result set) is one reference-count bump rather than a deep copy. Writers
/// go through [`Row::get_mut`], which copies the values first if any other
/// handle still shares them, so a snapshot never sees a later write.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// Empty row (used as the seed for joins).
    pub fn empty() -> Row {
        Row::default()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Mutable value at position `i`; copies the values first when another
    /// handle shares them.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Value> {
        Arc::make_mut(&mut self.values).get_mut(i)
    }

    /// Append a value (used when composing join outputs).
    pub fn push(&mut self, v: Value) {
        let mut values = self.values.to_vec();
        values.push(v);
        self.values = values.into();
    }

    /// Concatenate two rows into a new one (join output).
    pub fn concat(&self, other: &Row) -> Row {
        // Filling a `Vec` and moving it into the shared slice measured
        // faster on nested-loop joins than collecting an iterator straight
        // into an `Arc<[Value]>`.
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::new(values)
    }

    /// Project the row onto the given positions.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(
            indices
                .iter()
                .map(|&i| self.values.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// Hashable grouping key over the given positions.
    pub fn group_key(&self, indices: &[usize]) -> Vec<GroupKey> {
        indices
            .iter()
            .map(|&i| {
                self.values
                    .get(i)
                    .map(|v| v.group_key())
                    .unwrap_or(GroupKey::Null)
            })
            .collect()
    }

    /// Consume the row and return its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v)?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// A row paired with the schema that names its fields. Borrowed view used by
/// the content translator when instantiating templates ("MOVIE.TITLE").
#[derive(Debug, Clone, Copy)]
pub struct NamedRow<'a> {
    pub schema: &'a TableSchema,
    pub row: &'a Row,
}

impl<'a> NamedRow<'a> {
    /// Pair a schema with a row. The arity is not required to match exactly
    /// (projected rows may be narrower), lookups simply fail for missing
    /// fields.
    pub fn new(schema: &'a TableSchema, row: &'a Row) -> NamedRow<'a> {
        NamedRow { schema, row }
    }

    /// Value of the attribute with the given (case-insensitive) name.
    pub fn value(&self, column: &str) -> Option<&'a Value> {
        self.schema
            .column_index(column)
            .and_then(|i| self.row.get(i))
    }

    /// Value of the relation's heading attribute.
    pub fn heading_value(&self) -> Option<&'a Value> {
        self.value(self.schema.effective_heading())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "MOVIES",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("title", DataType::Text),
                ColumnDef::new("year", DataType::Integer),
            ],
        )
        .with_heading("title")
    }

    fn row() -> Row {
        Row::new(vec![
            Value::int(1),
            Value::text("Match Point"),
            Value::int(2005),
        ])
    }

    #[test]
    fn project_reorders_and_pads_missing() {
        let r = row();
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::int(2005), Value::int(1)]);
        let padded = r.project(&[5]);
        assert_eq!(padded.values(), &[Value::Null]);
    }

    #[test]
    fn concat_joins_rows() {
        let r = row();
        let joined = r.concat(&Row::new(vec![Value::text("x")]));
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.get(3), Some(&Value::text("x")));
    }

    #[test]
    fn get_mut_copies_only_shared_values() {
        let mut r = row();
        let before = r.values().as_ptr();
        *r.get_mut(2).unwrap() = Value::int(2006);
        assert_eq!(r.values().as_ptr(), before, "a sole owner edits in place");

        let shared = r.clone();
        assert_eq!(shared.values().as_ptr(), r.values().as_ptr());
        *r.get_mut(2).unwrap() = Value::int(2007);
        assert_ne!(r.values().as_ptr(), shared.values().as_ptr());
        assert_eq!(shared.get(2), Some(&Value::int(2006)));
        assert_eq!(r.get(2), Some(&Value::int(2007)));
    }

    #[test]
    fn group_key_is_stable() {
        let r = row();
        assert_eq!(r.group_key(&[0, 1]), r.clone().group_key(&[0, 1]));
        assert_ne!(r.group_key(&[0]), r.group_key(&[1]));
    }

    #[test]
    fn named_row_lookup_by_name_and_heading() {
        let s = schema();
        let r = row();
        let nr = NamedRow::new(&s, &r);
        assert_eq!(nr.value("TITLE"), Some(&Value::text("Match Point")));
        assert_eq!(nr.heading_value(), Some(&Value::text("Match Point")));
        assert_eq!(nr.value("missing"), None);
    }

    #[test]
    fn display_renders_parenthesized_tuple() {
        assert_eq!(row().to_string(), "(1, Match Point, 2005)");
    }
}
