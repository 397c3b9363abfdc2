//! Offline shim for the [`serde`](https://crates.io/crates/serde) crate.
//!
//! Unlike the first iteration of this shim (whose derives were no-ops),
//! this version implements a *real* — if deliberately small — serialization
//! framework so that the `#[derive(Serialize, Deserialize)]` annotations
//! across the workspace produce working round-trippable code, and the wire
//! format of `Query` / `Predicate` / `Aggregate` can be pinned by tests
//! before any network layer lands.
//!
//! Scope and divergences from upstream serde, by design:
//!
//! * The data model is a flat byte-stream of primitive writes rather than
//!   serde's visitor model: a [`Serializer`] receives unsigned integers,
//!   booleans, floats, raw byte strings, sequence lengths and enum variant
//!   tags, in declaration order. There is no field-name or self-describing
//!   framing — the format is positional, like `bincode`.
//! * `Serialize::serialize` takes `&mut S` instead of consuming `S`.
//! * The derive supports non-generic structs (named, tuple, unit) and
//!   enums (unit, tuple and struct variants). Generic types are rejected
//!   at compile time; none of the workspace's serialized types are generic.
//! * One concrete format ships in [`bin`]: LEB128 varints for integers,
//!   single bytes for booleans, IEEE-754 little-endian for floats,
//!   length-prefixed raw bytes. [`bin::to_bytes`] / [`bin::from_bytes`]
//!   are the entry points.
//! * A byte string has one encoding: `Vec<u8>` is written like `String`
//!   — its length, then the bytes as they are — through the element-type
//!   hooks [`Serialize::serialize_slice`] / [`Deserialize::deserialize_vec`].
//!   `[u8; N]` is a fixed tuple of integers and keeps one varint per byte.
//!
//! This is the workspace's own format, not a stand-in for upstream serde:
//! the derives are source-compatible with it, the data model is not.

#![forbid(unsafe_code)]

// Lets the code generated by the derive macros refer to this crate as
// `::serde` even from the crate's own unit tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;

/// A type that can be written to a [`Serializer`].
pub trait Serialize {
    /// Write `self` to the serializer.
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error>;

    /// Write a run of `Self` the way `Vec<Self>` is encoded: the length,
    /// then each element. An element type with a denser encoding for a
    /// run overrides this; `u8` writes one byte string.
    fn serialize_slice<S: Serializer>(items: &[Self], serializer: &mut S) -> Result<(), S::Error>
    where
        Self: Sized,
    {
        serializer.begin_seq(items.len())?;
        items.iter().try_for_each(|item| item.serialize(serializer))
    }
}

/// A type that can be read back from a [`Deserializer`].
///
/// The lifetime parameter mirrors upstream serde's signature; the shim's
/// deserializers never borrow from the input, so every implementation is
/// effectively `DeserializeOwned`.
pub trait Deserialize<'de>: Sized {
    /// Read a value from the deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error>;

    /// Read what [`Serialize::serialize_slice`] wrote.
    fn deserialize_vec<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Vec<Self>, D::Error> {
        let len = deserializer.read_seq_len()?;
        check_seq_len(deserializer, len)?;
        // Cap pre-allocation so corrupt lengths cannot trigger huge allocs.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(Self::deserialize(deserializer)?);
        }
        Ok(out)
    }
}

/// Marker for types deserializable without borrowing from the input,
/// mirroring `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// The writing half of the shim's positional data model.
pub trait Serializer {
    /// Error produced by the underlying writer.
    type Error;
    /// Write an unsigned integer (every integer width funnels through this).
    fn write_u64(&mut self, v: u64) -> Result<(), Self::Error>;
    /// Write a boolean.
    fn write_bool(&mut self, v: bool) -> Result<(), Self::Error>;
    /// Write a float.
    fn write_f64(&mut self, v: f64) -> Result<(), Self::Error>;
    /// Write a length-prefixed raw byte string.
    fn write_bytes(&mut self, v: &[u8]) -> Result<(), Self::Error>;
    /// Begin a sequence (or map) of `len` elements.
    fn begin_seq(&mut self, len: usize) -> Result<(), Self::Error>;
    /// Write an enum variant tag (declaration index).
    fn write_variant_tag(&mut self, tag: u32) -> Result<(), Self::Error>;
}

/// The reading half of the shim's positional data model.
pub trait Deserializer<'de> {
    /// Error produced on malformed input.
    type Error;
    /// Read an unsigned integer.
    fn read_u64(&mut self) -> Result<u64, Self::Error>;
    /// Read a boolean.
    fn read_bool(&mut self) -> Result<bool, Self::Error>;
    /// Read a float.
    fn read_f64(&mut self) -> Result<f64, Self::Error>;
    /// Read a length-prefixed raw byte string.
    fn read_bytes(&mut self) -> Result<Vec<u8>, Self::Error>;
    /// Read a sequence (or map) length.
    fn read_seq_len(&mut self) -> Result<usize, Self::Error>;
    /// Read an enum variant tag.
    fn read_variant_tag(&mut self) -> Result<u32, Self::Error>;
    /// Construct an error for a syntactically valid but semantically
    /// impossible value (unknown variant tag, integer overflow, bad UTF-8).
    fn invalid_value(&self, what: &'static str) -> Self::Error;

    /// Remaining input size in bytes, when the deserializer can tell.
    /// Container impls use it to reject decoded lengths that cannot
    /// possibly be satisfied — every element is assumed to consume at
    /// least one input byte, which also (deliberately) rejects non-empty
    /// sequences of zero-byte encodings (e.g. unit structs) rather than
    /// letting a corrupt length drive an unbounded decode loop. `None`
    /// disables the check.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Reject a decoded sequence/map length that exceeds the deserializer's
/// remaining input (see [`Deserializer::remaining_hint`]).
fn check_seq_len<'de, D: Deserializer<'de>>(deserializer: &D, len: usize) -> Result<(), D::Error> {
    match deserializer.remaining_hint() {
        Some(remaining) if len > remaining => {
            Err(deserializer.invalid_value("sequence length exceeds input"))
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
                serializer.write_u64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
                let v = deserializer.read_u64()?;
                <$t>::try_from(v).map_err(|_| deserializer.invalid_value("integer out of range"))
            }
        }
    )*};
}
impl_uint!(u16, u32, u64, usize);

// One `u8` is an integer like the others; a run of them is a byte string.
impl Serialize for u8 {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_u64(u64::from(*self))
    }
    fn serialize_slice<S: Serializer>(items: &[u8], serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_bytes(items)
    }
}
impl<'de> Deserialize<'de> for u8 {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let v = deserializer.read_u64()?;
        u8::try_from(v).map_err(|_| deserializer.invalid_value("integer out of range"))
    }
    fn deserialize_vec<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Vec<u8>, D::Error> {
        deserializer.read_bytes()
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
                // Zigzag so small negative values stay small on the wire.
                let v = i64::from(*self);
                serializer.write_u64(((v << 1) ^ (v >> 63)) as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
                let z = deserializer.read_u64()?;
                let v = ((z >> 1) as i64) ^ -((z & 1) as i64);
                <$t>::try_from(v).map_err(|_| deserializer.invalid_value("integer out of range"))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_bool(*self)
    }
}
impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        deserializer.read_bool()
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_f64(*self)
    }
}
impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        deserializer.read_f64()
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_bytes(self.as_bytes())
    }
}
impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let bytes = deserializer.read_bytes()?;
        String::from_utf8(bytes).map_err(|_| deserializer.invalid_value("invalid UTF-8"))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.write_bytes(self.as_bytes())
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        T::serialize_slice(self, serializer)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        T::deserialize_vec(deserializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        match self {
            None => serializer.write_variant_tag(0),
            Some(v) => {
                serializer.write_variant_tag(1)?;
                v.serialize(serializer)
            }
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        match deserializer.read_variant_tag()? {
            0 => Ok(None),
            1 => Ok(Some(T::deserialize(deserializer)?)),
            _ => Err(deserializer.invalid_value("Option tag")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        for item in self {
            item.serialize(serializer)?;
        }
        Ok(())
    }
}
impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::deserialize(deserializer)?);
        }
        out.try_into()
            .map_err(|_| deserializer.invalid_value("array length"))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
                $(self.$idx.serialize(serializer)?;)+
                Ok(())
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
                Ok(($($name::deserialize(deserializer)?,)+))
            }
        }
    )*};
}
impl_tuple!(
    (T0.0),
    (T0.0, T1.1),
    (T0.0, T1.1, T2.2),
    (T0.0, T1.1, T2.2, T3.3)
);

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.begin_seq(self.len())?;
        for (k, v) in self {
            k.serialize(serializer)?;
            v.serialize(serializer)?;
        }
        Ok(())
    }
}
impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let len = deserializer.read_seq_len()?;
        check_seq_len(deserializer, len)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::deserialize(deserializer)?;
            let v = V::deserialize(deserializer)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.begin_seq(self.len())?;
        for item in self {
            item.serialize(serializer)?;
        }
        Ok(())
    }
}
impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let len = deserializer.read_seq_len()?;
        check_seq_len(deserializer, len)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::deserialize(deserializer)?);
        }
        Ok(out)
    }
}

// `HashMap` iteration order is unspecified, so the byte output for hash
// maps is not canonical across runs — round-trips are still exact. Types
// needing a canonical encoding should prefer `BTreeMap`.
impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: &mut S) -> Result<(), S::Error> {
        serializer.begin_seq(self.len())?;
        for (k, v) in self {
            k.serialize(serializer)?;
            v.serialize(serializer)?;
        }
        Ok(())
    }
}
impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: &mut D) -> Result<Self, D::Error> {
        let len = deserializer.read_seq_len()?;
        check_seq_len(deserializer, len)?;
        let mut out = HashMap::with_capacity_and_hasher(len.min(4096), H::default());
        for _ in 0..len {
            let k = K::deserialize(deserializer)?;
            let v = V::deserialize(deserializer)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

pub mod bin {
    //! The shim's concrete binary format: LEB128 varints, 1-byte booleans,
    //! 8-byte little-endian floats, varint-length-prefixed byte strings.
    //! Sequence lengths and variant tags are varints too.

    use super::{DeserializeOwned, Deserializer, Serialize, Serializer};

    /// Errors raised while decoding the binary format.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Error {
        /// The input ended before the value was complete.
        UnexpectedEof,
        /// The value was decoded but bytes remained.
        TrailingBytes,
        /// A syntactically valid encoding held an impossible value.
        InvalidValue(&'static str),
        /// A varint ran longer than 10 bytes.
        VarintOverflow,
    }

    impl std::fmt::Display for Error {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Error::UnexpectedEof => write!(f, "unexpected end of input"),
                Error::TrailingBytes => write!(f, "trailing bytes after value"),
                Error::InvalidValue(what) => write!(f, "invalid value: {what}"),
                Error::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            }
        }
    }
    impl std::error::Error for Error {}

    /// Serializer writing the binary format into an owned buffer.
    #[derive(Debug, Default)]
    pub struct BinSerializer {
        out: Vec<u8>,
    }

    impl BinSerializer {
        /// Create an empty serializer.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Consume the serializer, returning the encoded bytes.
        #[must_use]
        pub fn into_bytes(self) -> Vec<u8> {
            self.out
        }

        fn varint(&mut self, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    self.out.push(byte);
                    return;
                }
                self.out.push(byte | 0x80);
            }
        }
    }

    impl Serializer for BinSerializer {
        type Error = std::convert::Infallible;

        fn write_u64(&mut self, v: u64) -> Result<(), Self::Error> {
            self.varint(v);
            Ok(())
        }
        fn write_bool(&mut self, v: bool) -> Result<(), Self::Error> {
            self.out.push(u8::from(v));
            Ok(())
        }
        fn write_f64(&mut self, v: f64) -> Result<(), Self::Error> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
        fn write_bytes(&mut self, v: &[u8]) -> Result<(), Self::Error> {
            self.varint(v.len() as u64);
            self.out.extend_from_slice(v);
            Ok(())
        }
        fn begin_seq(&mut self, len: usize) -> Result<(), Self::Error> {
            self.varint(len as u64);
            Ok(())
        }
        fn write_variant_tag(&mut self, tag: u32) -> Result<(), Self::Error> {
            self.varint(u64::from(tag));
            Ok(())
        }
    }

    /// Deserializer reading the binary format from a byte slice.
    #[derive(Debug)]
    pub struct BinDeserializer<'de> {
        input: &'de [u8],
    }

    impl<'de> BinDeserializer<'de> {
        /// Create a deserializer over `input`.
        #[must_use]
        pub fn new(input: &'de [u8]) -> Self {
            BinDeserializer { input }
        }

        /// Bytes not yet consumed.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.input.len()
        }

        fn take(&mut self, n: usize) -> Result<&'de [u8], Error> {
            if self.input.len() < n {
                return Err(Error::UnexpectedEof);
            }
            let (head, tail) = self.input.split_at(n);
            self.input = tail;
            Ok(head)
        }

        fn varint(&mut self) -> Result<u64, Error> {
            let mut out = 0u64;
            for shift in 0..10 {
                let byte = *self.input.first().ok_or(Error::UnexpectedEof)?;
                self.input = &self.input[1..];
                // The 10th byte may only carry the single bit still free in
                // a u64; anything larger would be silently truncated and
                // alias a different (valid) value.
                if shift == 9 && byte > 0x01 {
                    return Err(Error::VarintOverflow);
                }
                out |= u64::from(byte & 0x7f) << (shift * 7);
                if byte & 0x80 == 0 {
                    return Ok(out);
                }
            }
            Err(Error::VarintOverflow)
        }
    }

    impl<'de> Deserializer<'de> for BinDeserializer<'de> {
        type Error = Error;

        fn read_u64(&mut self) -> Result<u64, Self::Error> {
            self.varint()
        }
        fn read_bool(&mut self) -> Result<bool, Self::Error> {
            match self.take(1)?[0] {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(Error::InvalidValue("bool byte")),
            }
        }
        fn read_f64(&mut self) -> Result<f64, Self::Error> {
            let bytes = self.take(8)?;
            Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        }
        fn read_bytes(&mut self) -> Result<Vec<u8>, Self::Error> {
            let len = self.varint()?;
            let len = usize::try_from(len).map_err(|_| Error::InvalidValue("byte length"))?;
            Ok(self.take(len)?.to_vec())
        }
        fn read_seq_len(&mut self) -> Result<usize, Self::Error> {
            let len = self.varint()?;
            usize::try_from(len).map_err(|_| Error::InvalidValue("sequence length"))
        }
        fn read_variant_tag(&mut self) -> Result<u32, Self::Error> {
            let tag = self.varint()?;
            u32::try_from(tag).map_err(|_| Error::InvalidValue("variant tag"))
        }
        fn invalid_value(&self, what: &'static str) -> Self::Error {
            Error::InvalidValue(what)
        }
        fn remaining_hint(&self) -> Option<usize> {
            Some(self.remaining())
        }
    }

    /// Encode a value into the binary format.
    pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
        append_to(Vec::new(), value)
    }

    /// Encode `value` onto the end of `out`: how a frame is encoded
    /// behind its length slot without a second copy of the payload.
    pub(crate) fn append_to<T: Serialize + ?Sized>(out: Vec<u8>, value: &T) -> Vec<u8> {
        let mut serializer = BinSerializer { out };
        match value.serialize(&mut serializer) {
            Ok(()) => serializer.into_bytes(),
        }
    }

    /// Decode a value from the binary format, requiring the input to be
    /// fully consumed.
    pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
        let mut deserializer = BinDeserializer::new(bytes);
        let value = T::deserialize(&mut deserializer)?;
        if deserializer.remaining() != 0 {
            return Err(Error::TrailingBytes);
        }
        Ok(value)
    }
}

pub mod frame {
    //! Length-prefixed framing over the [`bin`] format, for
    //! streaming [`Serialize`]-able messages over a byte pipe (a
    //! `TcpStream`, a unix socket, an in-memory buffer).
    //!
    //! Wire layout of one frame:
    //!
    //! ```text
    //! ┌────────────────────┬─────────────────────────────┐
    //! │ length: u32 LE     │ payload: bin-encoded value  │
    //! │ (payload bytes)    │ (`length` bytes)            │
    //! └────────────────────┴─────────────────────────────┘
    //! ```
    //!
    //! The length prefix is fixed-width (not a varint) so a reader can
    //! always pre-validate the payload size against its limit before
    //! allocating, and so torn frames are detectable: EOF *between* frames
    //! is a clean close ([`FrameError::Closed`]); EOF inside a prefix or
    //! payload is [`FrameError::Io`] with `UnexpectedEof`.
    //!
    //! An oversized frame is consumed (streamed to a sink, never
    //! buffered) before [`FrameError::TooLarge`] is returned, so the
    //! stream stays frame-aligned and the reader can reply with a
    //! structured error instead of tearing the connection down.
    //!
    //! [`write_frame`] hands the writer a whole frame in one `write_all`,
    //! so on a socket a small frame leaves as one segment. [`read_frame`]
    //! makes several small reads per frame (the prefix, then the
    //! payload): a socket reader wraps its stream in one
    //! `std::io::BufReader` for the connection's life, so those reads are
    //! served from one buffer and a frame that arrived whole costs one
    //! system call.

    use super::{bin, DeserializeOwned, Serialize};
    use std::io::{Read, Write};

    /// Bytes of the fixed-width length prefix.
    pub const LEN_PREFIX_BYTES: usize = 4;

    /// Errors raised while framing or de-framing a message.
    #[derive(Debug)]
    pub enum FrameError {
        /// The underlying reader/writer failed (including EOF *inside* a
        /// frame, surfaced as `UnexpectedEof`).
        Io(std::io::Error),
        /// The payload did not decode as the expected message type.
        Decode(bin::Error),
        /// A frame exceeded the reader's (or `u32`'s) size limit. The
        /// payload has been consumed, so the stream is still aligned.
        TooLarge {
            /// The offending frame's payload length.
            len: u64,
            /// The limit it exceeded.
            max: u64,
        },
        /// The peer closed the stream cleanly between frames.
        Closed,
    }

    impl std::fmt::Display for FrameError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
                FrameError::Decode(e) => write!(f, "frame payload decode error: {e}"),
                FrameError::TooLarge { len, max } => {
                    write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
                }
                FrameError::Closed => write!(f, "stream closed between frames"),
            }
        }
    }

    impl std::error::Error for FrameError {
        fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
            match self {
                FrameError::Io(e) => Some(e),
                FrameError::Decode(e) => Some(e),
                _ => None,
            }
        }
    }

    impl From<std::io::Error> for FrameError {
        fn from(e: std::io::Error) -> Self {
            FrameError::Io(e)
        }
    }

    /// Encode `value` in the [`bin`] format behind its length prefix and
    /// write the whole frame with one `write_all`. Flushes the writer so
    /// a blocking peer sees the frame immediately.
    pub fn write_frame<W: Write, T: Serialize + ?Sized>(
        writer: &mut W,
        value: &T,
    ) -> Result<(), FrameError> {
        let mut frame = bin::append_to(vec![0; LEN_PREFIX_BYTES], value);
        let payload_len = frame.len() - LEN_PREFIX_BYTES;
        let len = u32::try_from(payload_len).map_err(|_| FrameError::TooLarge {
            len: payload_len as u64,
            max: u64::from(u32::MAX),
        })?;
        frame[..LEN_PREFIX_BYTES].copy_from_slice(&len.to_le_bytes());
        writer.write_all(&frame)?;
        writer.flush()?;
        Ok(())
    }

    /// Read one frame and decode its payload as `T`. Payloads longer than
    /// `max_len` are drained (unbuffered) and reported as
    /// [`FrameError::TooLarge`], leaving the stream aligned on the next
    /// frame boundary.
    pub fn read_frame<R: Read, T: DeserializeOwned>(
        reader: &mut R,
        max_len: usize,
    ) -> Result<T, FrameError> {
        let mut prefix = [0u8; LEN_PREFIX_BYTES];
        read_prefix(reader, &mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > max_len {
            // Drain without buffering so the next read starts at a frame
            // boundary and the caller can answer with a structured error.
            // `io::copy` returns Ok on early EOF, so the drained count
            // must be checked: a short drain is a torn stream, not an
            // aligned one.
            let drained = std::io::copy(&mut reader.take(len as u64), &mut std::io::sink())?;
            if drained < len as u64 {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed inside an oversized frame payload",
                )));
            }
            return Err(FrameError::TooLarge {
                len: len as u64,
                max: max_len as u64,
            });
        }
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload)?;
        bin::from_bytes(&payload).map_err(FrameError::Decode)
    }

    /// Read the length prefix, distinguishing a clean close (EOF before
    /// the first prefix byte → [`FrameError::Closed`]) from a torn frame
    /// (EOF after it → `Io(UnexpectedEof)`).
    fn read_prefix<R: Read>(reader: &mut R, prefix: &mut [u8]) -> Result<(), FrameError> {
        let mut filled = 0;
        while filled < prefix.len() {
            match reader.read(&mut prefix[filled..]) {
                Ok(0) if filled == 0 => return Err(FrameError::Closed),
                Ok(0) => {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "stream closed inside a frame length prefix",
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(())
    }

    /// Incremental (push-based) counterpart of [`read_frame`], for
    /// readers that receive bytes in arbitrary chunks. Nothing in the
    /// workspace reads a socket with it any more (sockets are read with
    /// [`read_frame`] over a `BufReader`): it stays only for
    /// `benchmark/`'s codec probe, and the next `[benchmark]` PR moves or
    /// removes it with the probe.
    ///
    /// Feed whatever arrived with [`FrameDecoder::extend_from_slice`],
    /// then call [`FrameDecoder::try_decode`] until it returns `Ok(None)`
    /// (= need more bytes). The decoder produces the exact same sequence
    /// of values and errors as [`read_frame`] over the same byte stream,
    /// independent of how the bytes were split:
    ///
    /// * an oversized frame's payload is consumed without buffering and
    ///   reported as [`FrameError::TooLarge`] exactly once, after which
    ///   the stream is aligned on the next frame (blocking-path parity);
    /// * a payload that fails to decode is consumed before
    ///   [`FrameError::Decode`] is returned, likewise leaving the stream
    ///   aligned;
    /// * EOF classification is the caller's: on end-of-stream, decode
    ///   everything pending, then map [`FrameDecoder::mid_frame`] `true`
    ///   to a torn stream (`Io(UnexpectedEof)`) and `false` to a clean
    ///   close ([`FrameError::Closed`]).
    #[derive(Debug)]
    pub struct FrameDecoder {
        max_len: usize,
        buf: Vec<u8>,
        start: usize,
        state: DecodeState,
    }

    #[derive(Debug, Clone, Copy)]
    enum DecodeState {
        /// Accumulating an ordinary frame (or between frames).
        Frames,
        /// Discarding the payload of an oversized frame.
        Skipping { remaining: u64, len: u64 },
        /// Oversized payload fully discarded; owe the caller one
        /// `TooLarge` before resuming.
        ReportTooLarge { len: u64 },
    }

    /// Buffered-byte threshold past which consumed prefixes are compacted
    /// away instead of accumulating at the front of the buffer.
    const COMPACT_THRESHOLD: usize = 4096;

    impl FrameDecoder {
        /// A decoder rejecting frames whose payload exceeds `max_len`
        /// bytes (the same limit [`read_frame`] takes per call).
        pub fn new(max_len: usize) -> FrameDecoder {
            FrameDecoder {
                max_len,
                buf: Vec::new(),
                start: 0,
                state: DecodeState::Frames,
            }
        }

        /// Append bytes received from the transport. Bytes belonging to
        /// an oversized frame being skipped are discarded here without
        /// ever being buffered, mirroring the blocking path's unbuffered
        /// drain.
        pub fn extend_from_slice(&mut self, mut bytes: &[u8]) {
            if let DecodeState::Skipping { remaining, len } = self.state {
                let take = remaining.min(bytes.len() as u64);
                let remaining = remaining - take;
                bytes = &bytes[take as usize..];
                self.state = if remaining == 0 {
                    DecodeState::ReportTooLarge { len }
                } else {
                    DecodeState::Skipping { remaining, len }
                };
            }
            self.buf.extend_from_slice(bytes);
        }

        /// Decode the next complete frame, if one is buffered.
        ///
        /// `Ok(None)` means more bytes are needed. Errors are per-frame,
        /// not fatal to the decoder: after [`FrameError::TooLarge`] or
        /// [`FrameError::Decode`] the offending frame has been consumed
        /// and subsequent frames decode normally.
        pub fn try_decode<T: DeserializeOwned>(&mut self) -> Result<Option<T>, FrameError> {
            loop {
                match self.state {
                    DecodeState::ReportTooLarge { len } => {
                        self.state = DecodeState::Frames;
                        return Err(FrameError::TooLarge {
                            len,
                            max: self.max_len as u64,
                        });
                    }
                    DecodeState::Skipping { remaining, len } => {
                        // Bytes buffered before the skip began (the tail
                        // of a read that straddled the oversized header).
                        let take = remaining.min(self.available() as u64);
                        self.start += take as usize;
                        self.compact();
                        let remaining = remaining - take;
                        if remaining == 0 {
                            self.state = DecodeState::ReportTooLarge { len };
                        } else {
                            self.state = DecodeState::Skipping { remaining, len };
                            return Ok(None);
                        }
                    }
                    DecodeState::Frames => {
                        if self.available() < LEN_PREFIX_BYTES {
                            return Ok(None);
                        }
                        let mut prefix = [0u8; LEN_PREFIX_BYTES];
                        prefix
                            .copy_from_slice(&self.buf[self.start..self.start + LEN_PREFIX_BYTES]);
                        let len = u32::from_le_bytes(prefix) as usize;
                        if len > self.max_len {
                            self.start += LEN_PREFIX_BYTES;
                            self.state = DecodeState::Skipping {
                                remaining: len as u64,
                                len: len as u64,
                            };
                            continue;
                        }
                        if self.available() < LEN_PREFIX_BYTES + len {
                            return Ok(None);
                        }
                        let payload_start = self.start + LEN_PREFIX_BYTES;
                        let result = bin::from_bytes(&self.buf[payload_start..payload_start + len]);
                        // Consume the frame whether or not it decoded, so
                        // a Decode error leaves the stream aligned exactly
                        // as the blocking path does.
                        self.start = payload_start + len;
                        self.compact();
                        return result.map(Some).map_err(FrameError::Decode);
                    }
                }
            }
        }

        /// Whether end-of-stream *now* would tear a frame: a partial
        /// prefix or payload is buffered, or an oversized payload's drain
        /// is unfinished. `false` means the stream is at a frame boundary
        /// and EOF is a clean close. Only meaningful once
        /// [`FrameDecoder::try_decode`] has returned `Ok(None)`.
        pub fn mid_frame(&self) -> bool {
            matches!(self.state, DecodeState::Skipping { .. }) || self.available() > 0
        }

        fn available(&self) -> usize {
            self.buf.len() - self.start
        }

        fn compact(&mut self) {
            if self.start == self.buf.len() {
                self.buf.clear();
                self.start = 0;
            } else if self.start >= COMPACT_THRESHOLD {
                self.buf.drain(..self.start);
                self.start = 0;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn frames_round_trip_back_to_back() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
            write_frame(&mut buf, &"hello".to_string()).unwrap();
            let mut reader = buf.as_slice();
            let v: Vec<u64> = read_frame(&mut reader, 1024).unwrap();
            assert_eq!(v, vec![1, 2, 3]);
            let s: String = read_frame(&mut reader, 1024).unwrap();
            assert_eq!(s, "hello");
            assert!(matches!(
                read_frame::<_, u64>(&mut reader, 1024),
                Err(FrameError::Closed)
            ));
        }

        #[test]
        fn oversized_frame_is_drained_and_stream_stays_aligned() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![7u8; 100]).unwrap();
            write_frame(&mut buf, &42u64).unwrap();
            let mut reader = buf.as_slice();
            assert!(matches!(
                read_frame::<_, Vec<u8>>(&mut reader, 16),
                Err(FrameError::TooLarge { max: 16, .. })
            ));
            // The next frame is still readable.
            assert_eq!(read_frame::<_, u64>(&mut reader, 16).unwrap(), 42);
        }

        #[test]
        fn truncated_oversized_frame_is_torn_not_too_large() {
            // A prefix declaring more bytes than ever arrive: the drain
            // hits EOF early, which must surface as a torn stream (Io),
            // not as TooLarge-with-aligned-stream.
            let mut buf = Vec::new();
            buf.extend_from_slice(&1_000_000u32.to_le_bytes());
            buf.extend_from_slice(&[0u8; 100]);
            let mut reader = buf.as_slice();
            assert!(matches!(
                read_frame::<_, Vec<u8>>(&mut reader, 16),
                Err(FrameError::Io(_))
            ));
        }

        #[test]
        fn torn_prefix_and_torn_payload_are_io_errors() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &12345u64).unwrap();
            // EOF inside the prefix.
            let mut torn = &buf[..2];
            assert!(matches!(
                read_frame::<_, u64>(&mut torn, 1024),
                Err(FrameError::Io(_))
            ));
            // EOF inside the payload.
            let mut torn = &buf[..LEN_PREFIX_BYTES + 1];
            assert!(matches!(
                read_frame::<_, u64>(&mut torn, 1024),
                Err(FrameError::Io(_))
            ));
        }

        #[test]
        fn garbage_payload_is_a_decode_error() {
            let mut buf = Vec::new();
            // A frame whose payload is a valid length but invalid bool.
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(9);
            let mut reader = buf.as_slice();
            assert!(matches!(
                read_frame::<_, bool>(&mut reader, 1024),
                Err(FrameError::Decode(_))
            ));
        }

        /// A writer that keeps each `write` call's bytes apart.
        #[derive(Default)]
        struct WriteCalls(Vec<Vec<u8>>);

        impl Write for WriteCalls {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        fn assert_one_write<T: Serialize + ?Sized>(value: &T, payload_len: usize) {
            let payload = bin::to_bytes(value);
            assert_eq!(payload.len(), payload_len);
            let mut want = (payload_len as u32).to_le_bytes().to_vec();
            want.extend_from_slice(&payload);
            let mut calls = WriteCalls::default();
            write_frame(&mut calls, value).unwrap();
            assert_eq!(calls.0.len(), 1, "one write per frame");
            assert!(calls.0[0] == want, "the bytes are len ‖ payload");
        }

        #[test]
        fn a_frame_leaves_in_one_write() {
            assert_one_write("x".repeat(19).as_str(), 20);
            assert_one_write(&vec![0xABu8; 1 << 20], (1 << 20) + 3);
        }

        /// A reader that hands out at most `chunk` bytes per `read` and
        /// counts the calls.
        struct CountingReader<'a> {
            rest: &'a [u8],
            chunk: usize,
            reads: usize,
        }

        impl Read for CountingReader<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.reads += 1;
                let n = buf.len().min(self.chunk).min(self.rest.len());
                buf[..n].copy_from_slice(&self.rest[..n]);
                self.rest = &self.rest[n..];
                Ok(n)
            }
        }

        fn counting(bytes: &[u8], chunk: usize) -> std::io::BufReader<CountingReader<'_>> {
            std::io::BufReader::new(CountingReader {
                rest: bytes,
                chunk,
                reads: 0,
            })
        }

        #[test]
        fn buffered_small_frames_back_to_back_cost_one_read() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &7u64).unwrap();
            write_frame(&mut buf, &"hello".to_string()).unwrap();
            let mut reader = counting(&buf, usize::MAX);
            assert_eq!(read_frame::<_, u64>(&mut reader, 1024).unwrap(), 7);
            assert_eq!(read_frame::<_, String>(&mut reader, 1024).unwrap(), "hello");
            assert_eq!(reader.get_ref().reads, 1);
        }

        #[test]
        fn buffered_oversized_frame_spanning_refills_is_drained() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![7u8; 40_000]).unwrap();
            write_frame(&mut buf, &42u64).unwrap();
            let mut reader = counting(&buf, 3000);
            assert!(matches!(
                read_frame::<_, Vec<u8>>(&mut reader, 1024),
                Err(FrameError::TooLarge { max: 1024, .. })
            ));
            assert!(reader.get_ref().reads > 10, "the drain spans many reads");
            assert_eq!(read_frame::<_, u64>(&mut reader, 1024).unwrap(), 42);
            assert!(matches!(
                read_frame::<_, u64>(&mut reader, 1024),
                Err(FrameError::Closed)
            ));
        }

        #[test]
        fn buffered_eof_keeps_closed_apart_from_a_torn_frame() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &12345u64).unwrap();
            let torn = |end: usize| read_frame::<_, u64>(&mut counting(&buf[..end], 1), 1024);
            assert!(matches!(torn(0), Err(FrameError::Closed)));
            for end in [2, LEN_PREFIX_BYTES + 1] {
                assert!(
                    matches!(torn(end), Err(FrameError::Io(e))
                        if e.kind() == std::io::ErrorKind::UnexpectedEof),
                    "EOF after {end} bytes is a torn frame"
                );
            }
        }

        #[test]
        fn incremental_decoder_handles_byte_at_a_time_delivery() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
            write_frame(&mut buf, &"hello".to_string()).unwrap();

            let mut decoder = FrameDecoder::new(1024);
            let mut values = Vec::new();
            let mut strings = Vec::new();
            for &byte in &buf {
                decoder.extend_from_slice(&[byte]);
                if values.is_empty() {
                    if let Some(v) = decoder.try_decode::<Vec<u64>>().unwrap() {
                        values.push(v);
                    }
                } else if let Some(s) = decoder.try_decode::<String>().unwrap() {
                    strings.push(s);
                }
            }
            assert_eq!(values, vec![vec![1, 2, 3]]);
            assert_eq!(strings, vec!["hello".to_string()]);
            assert!(!decoder.mid_frame(), "stream ends on a frame boundary");
        }

        #[test]
        fn incremental_decoder_skips_oversized_frames_and_realigns() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![7u8; 100]).unwrap();
            write_frame(&mut buf, &42u64).unwrap();

            // Deliver in two arbitrary chunks that straddle the oversized
            // payload so the skip spans extend_from_slice and try_decode.
            let mut decoder = FrameDecoder::new(16);
            decoder.extend_from_slice(&buf[..30]);
            assert!(decoder.try_decode::<Vec<u8>>().unwrap().is_none());
            assert!(decoder.mid_frame(), "mid-skip counts as mid-frame");
            decoder.extend_from_slice(&buf[30..]);
            assert!(matches!(
                decoder.try_decode::<Vec<u8>>(),
                Err(FrameError::TooLarge { max: 16, .. })
            ));
            // The next frame is still readable, as on the blocking path.
            assert_eq!(decoder.try_decode::<u64>().unwrap(), Some(42));
            assert!(decoder.try_decode::<u64>().unwrap().is_none());
            assert!(!decoder.mid_frame());
        }

        #[test]
        fn incremental_decoder_reports_torn_frames_via_mid_frame() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &12345u64).unwrap();
            // EOF inside the prefix.
            let mut decoder = FrameDecoder::new(1024);
            decoder.extend_from_slice(&buf[..2]);
            assert!(decoder.try_decode::<u64>().unwrap().is_none());
            assert!(decoder.mid_frame());
            // EOF inside the payload.
            let mut decoder = FrameDecoder::new(1024);
            decoder.extend_from_slice(&buf[..LEN_PREFIX_BYTES + 1]);
            assert!(decoder.try_decode::<u64>().unwrap().is_none());
            assert!(decoder.mid_frame());
            // EOF inside an oversized payload's drain.
            let mut decoder = FrameDecoder::new(16);
            decoder.extend_from_slice(&1_000_000u32.to_le_bytes());
            decoder.extend_from_slice(&[0u8; 100]);
            assert!(decoder.try_decode::<u64>().unwrap().is_none());
            assert!(decoder.mid_frame());
        }

        #[test]
        fn incremental_decoder_consumes_undecodable_frames() {
            let mut buf = Vec::new();
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(9); // invalid bool
            write_frame(&mut buf, &true).unwrap();
            let mut decoder = FrameDecoder::new(1024);
            decoder.extend_from_slice(&buf);
            assert!(matches!(
                decoder.try_decode::<bool>(),
                Err(FrameError::Decode(_))
            ));
            assert_eq!(decoder.try_decode::<bool>().unwrap(), Some(true));
        }

        #[test]
        fn incremental_decoder_compacts_consumed_prefixes() {
            // Push enough traffic through one decoder that the buffer
            // must compact (or it would grow without bound), and confirm
            // decoding stays correct across the compaction boundary.
            let mut decoder = FrameDecoder::new(1 << 20);
            let mut frame = Vec::new();
            write_frame(&mut frame, &vec![0xABu8; 1500]).unwrap();
            for _ in 0..64 {
                decoder.extend_from_slice(&frame);
                let got = decoder.try_decode::<Vec<u8>>().unwrap().unwrap();
                assert_eq!(got.len(), 1500);
            }
            assert!(!decoder.mid_frame());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bin::{from_bytes, to_bytes, Error};
    use super::{Deserialize, Serialize};
    use std::collections::{BTreeMap, HashMap};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Named {
        a: u64,
        b: Vec<u32>,
        c: Option<bool>,
        d: (u64, u64),
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Tup(u64, [u8; 4]);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Mixed {
        Nothing,
        Pair(u32, u32),
        Fields { x: Vec<u64>, y: Option<String> },
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(from_bytes::<u64>(&to_bytes(&0u64)), Ok(0));
        assert_eq!(from_bytes::<u64>(&to_bytes(&u64::MAX)), Ok(u64::MAX));
        assert_eq!(from_bytes::<u8>(&to_bytes(&255u8)), Ok(255));
        assert_eq!(from_bytes::<bool>(&to_bytes(&true)), Ok(true));
        assert_eq!(from_bytes::<i64>(&to_bytes(&-17i64)), Ok(-17));
        assert_eq!(from_bytes::<f64>(&to_bytes(&1.5f64)), Ok(1.5));
        assert_eq!(
            from_bytes::<String>(&to_bytes(&"héllo".to_string())),
            Ok("héllo".to_string())
        );
    }

    #[test]
    fn varint_layout_is_leb128() {
        assert_eq!(to_bytes(&5u64), vec![5]);
        assert_eq!(to_bytes(&127u64), vec![0x7f]);
        assert_eq!(to_bytes(&128u64), vec![0x80, 0x01]);
        assert_eq!(to_bytes(&300u64), vec![0xac, 0x02]);
    }

    /// A `Vec<u8>` is a byte string — `String`'s layout, one stored byte
    /// per byte whatever its value — at any depth; `[u8; N]` is not.
    #[test]
    fn byte_vectors_are_byte_strings() {
        assert_eq!(to_bytes(&vec![0x80u8, 0xff, 1]), vec![3, 0x80, 0xff, 1]);
        assert_eq!(to_bytes(&b"hi".to_vec()), to_bytes("hi"));
        assert_eq!(to_bytes(&[0x80u8, 1]), vec![0x80, 0x01, 1]);
        let nested = vec![vec![0xfeu8; 200], vec![], vec![0]];
        let bytes = to_bytes(&nested);
        assert_eq!(bytes.len(), 1 + (2 + 200) + 1 + 2);
        assert_eq!(from_bytes::<Vec<Vec<u8>>>(&bytes), Ok(nested));
        // A declared length past the input fails before anything is copied.
        assert_eq!(
            from_bytes::<Vec<u8>>(&[0xff, 0xff, 0xff, 0x7f, 1, 2]),
            Err(Error::UnexpectedEof)
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)), Ok(v));
        let m: BTreeMap<u64, String> = [(1, "one".into()), (2, "two".into())].into();
        assert_eq!(from_bytes::<BTreeMap<u64, String>>(&to_bytes(&m)), Ok(m));
        let h: HashMap<u32, u32> = [(9, 1), (8, 2)].into();
        assert_eq!(from_bytes::<HashMap<u32, u32>>(&to_bytes(&h)), Ok(h));
        assert_eq!(
            from_bytes::<Option<Vec<u64>>>(&to_bytes(&Some(vec![7u64]))),
            Ok(Some(vec![7]))
        );
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&None::<u64>)), Ok(None));
    }

    #[test]
    fn derived_structs_round_trip() {
        let named = Named {
            a: 42,
            b: vec![1, 2, 3],
            c: Some(true),
            d: (9, 10),
        };
        assert_eq!(from_bytes::<Named>(&to_bytes(&named)), Ok(named));
        let tup = Tup(7, [1, 2, 3, 4]);
        assert_eq!(from_bytes::<Tup>(&to_bytes(&tup)), Ok(tup));
        assert_eq!(from_bytes::<Unit>(&to_bytes(&Unit)), Ok(Unit));
    }

    #[test]
    fn derived_enums_round_trip() {
        for value in [
            Mixed::Nothing,
            Mixed::Pair(3, 4),
            Mixed::Fields {
                x: vec![1, 2],
                y: Some("z".into()),
            },
            Mixed::Fields { x: vec![], y: None },
        ] {
            assert_eq!(from_bytes::<Mixed>(&to_bytes(&value)), Ok(value));
        }
    }

    #[test]
    fn enum_tags_follow_declaration_order() {
        assert_eq!(to_bytes(&Mixed::Nothing), vec![0]);
        assert!(to_bytes(&Mixed::Pair(0, 0)).starts_with(&[1]));
        assert!(to_bytes(&Mixed::Fields { x: vec![], y: None }).starts_with(&[2]));
    }

    #[test]
    fn malformed_input_errors() {
        assert_eq!(from_bytes::<u64>(&[0x80]), Err(Error::UnexpectedEof));
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(Error::InvalidValue("bool byte"))
        );
        assert_eq!(from_bytes::<u64>(&[1, 1]), Err(Error::TrailingBytes));
        assert_eq!(
            from_bytes::<Mixed>(&[9]),
            Err(Error::InvalidValue("variant tag"))
        );
        assert_eq!(
            from_bytes::<u8>(&to_bytes(&300u64)),
            Err(Error::InvalidValue("integer out of range"))
        );
    }

    #[test]
    fn overflowing_varints_are_rejected_not_aliased() {
        // Ten continuation bytes: too long outright.
        assert_eq!(from_bytes::<u64>(&[0x80; 10]), Err(Error::VarintOverflow));
        // A 10th byte carrying bits beyond u64's capacity must error, not
        // silently truncate to a small valid value (here it would alias 0).
        assert_eq!(
            from_bytes::<u64>(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]),
            Err(Error::VarintOverflow)
        );
        // The maximum canonical encoding still decodes.
        assert_eq!(
            from_bytes::<u64>(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]),
            Ok(u64::MAX)
        );
    }

    #[test]
    fn corrupt_lengths_cannot_drive_unbounded_decoding() {
        // u64::MAX as a Vec length over 10 bytes of input: rejected up
        // front instead of looping ~2^64 times (Unit consumes no input).
        let huge_len = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(
            from_bytes::<Vec<Unit>>(&huge_len),
            Err(Error::InvalidValue("sequence length exceeds input"))
        );
        assert_eq!(
            from_bytes::<Vec<u64>>(&huge_len),
            Err(Error::InvalidValue("sequence length exceeds input"))
        );
        // Ordinary sequences still decode.
        assert_eq!(
            from_bytes::<Vec<u64>>(&to_bytes(&vec![1u64, 2])),
            Ok(vec![1, 2])
        );
    }
}
