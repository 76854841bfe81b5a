//! Minimal serde shim (see `shims/README.md`).
//!
//! Real serde serializes through a visitor/`Serializer` pair; this shim
//! collapses that to a JSON-style value tree: `Serialize` renders `self`
//! into a [`Value`], `Deserialize` reads one back. `serde_json` (also a
//! shim) is the only consumer, so the value tree *is* the data model.
//! Derive macros come from the dependency-free `serde_derive` shim and
//! follow serde's default representations (structs → objects, newtype
//! structs transparent, enums externally tagged) so artifacts round-trip
//! the way real serde would shape them.

pub mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Type-mismatch error: wanted `expected` while handling `ctx`.
    pub fn expected(expected: &str, ctx: &str) -> Error {
        Error(format!("expected {expected} for {ctx}"))
    }

    /// Missing object field.
    pub fn missing_field(field: &str, ty: &str) -> Error {
        Error(format!("missing field '{field}' for {ty}"))
    }

    /// Unknown enum variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> Error {
        Error(format!("unknown variant '{variant}' for {ty}"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Render `self` as a [`Value`] tree (shim analogue of `serde::Serialize`).
pub trait Serialize {
    /// Convert to the value tree.
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree (shim analogue of
/// `serde::Deserialize`).
pub trait Deserialize: Sized {
    /// Convert from the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---- primitive impls -------------------------------------------------------

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::expected(stringify!($t), "number"))
            }
        }
    )*};
}

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| Error::expected(stringify!($t), "number"))
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);
ser_de_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("f64", "number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // f32 → f64 widening is exact, so the narrowing cast round-trips.
        v.as_f64()
            .map(|n| n as f32)
            .ok_or_else(|| Error::expected("f32", "number"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::expected("bool", "value"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", "value"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .and_then(|s| {
                let mut it = s.chars();
                match (it.next(), it.next()) {
                    (Some(c), None) => Some(c),
                    _ => None,
                }
            })
            .ok_or_else(|| Error::expected("char", "string"))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error(format!("expected {N} elements, got {}", items.len())))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| Error::expected("array", "tuple"))?;
                Ok(($($t::from_value(
                    a.get($n).ok_or_else(|| Error::expected("tuple element", "tuple"))?,
                )?,)+))
            }
        }
    )*};
}

ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::expected("object", "HashMap"))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::expected("object", "BTreeMap"))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}
