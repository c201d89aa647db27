//! Message (un)marshalling.
//!
//! libm3 overloads the C++ shift operators to marshal objects into DTU
//! messages (paper §4.5.6, following the L4 marshalling frameworks): one
//! operator per field type, composed per message. The Rust equivalent is
//! the [`Wire`] trait, implemented for each field type on top of a pair of
//! byte-oriented streams ([`OStream`], [`IStream`]). Every DTU-message
//! protocol in this workspace is encoded with them, so a message's cost
//! model (its length) matches what actually goes over the NoC.
//!
//! To declare a message, list its fields once in [`wire!`](crate::wire):
//! the macro emits the type with its `Wire` implementation, `to_bytes`,
//! `from_bytes` and, for an enum, `name()`. An enum puts a tag of the
//! declared width before each variant's fields; a list field needs a bound,
//! which decoding enforces before it allocates.
//!
//! All integers are little-endian. Strings are a `u32` length followed by the
//! UTF-8 bytes. Byte vectors are encoded the same way.

use crate::error::{Code, Error, Result};
use crate::perm::Perm;

/// An output stream that marshals values into a byte buffer.
///
/// # Examples
///
/// ```
/// use m3_base::marshal::OStream;
///
/// let mut os = OStream::new();
/// os.push_u32(7).push_str("path");
/// assert_eq!(os.len(), 4 + 4 + 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct OStream {
    buf: Vec<u8>,
}

impl OStream {
    /// Creates an empty stream.
    pub fn new() -> OStream {
        OStream { buf: Vec::new() }
    }

    /// Creates an empty stream with space for `cap` bytes.
    pub fn with_capacity(cap: usize) -> OStream {
        OStream {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a `u8`.
    pub fn push_u8(&mut self, v: u8) -> &mut OStream {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` (little-endian).
    pub fn push_u32(&mut self, v: u32) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64` (little-endian).
    pub fn push_u64(&mut self, v: u64) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `i64` (little-endian).
    pub fn push_i64(&mut self, v: i64) -> &mut OStream {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `bool` as one byte.
    pub fn push_bool(&mut self, v: bool) -> &mut OStream {
        self.push_u8(v as u8)
    }

    /// Appends a length-prefixed string.
    pub fn push_str(&mut self, v: &str) -> &mut OStream {
        self.push_bytes(v.as_bytes())
    }

    /// Appends a length-prefixed byte slice.
    pub fn push_bytes(&mut self, v: &[u8]) -> &mut OStream {
        self.push_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Number of bytes marshalled so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been marshalled yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the stream and returns the marshalled bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the marshalled bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// An input stream that unmarshals values from a byte buffer.
///
/// All pop methods return [`Code::BadMessage`] if the buffer is exhausted or
/// malformed, so a corrupted or truncated message never panics the receiver.
///
/// # Examples
///
/// ```
/// use m3_base::marshal::{IStream, OStream};
///
/// let mut os = OStream::new();
/// os.push_bool(true).push_u64(9);
/// let bytes = os.into_bytes();
/// let mut is = IStream::new(&bytes);
/// assert!(is.pop_bool().unwrap());
/// assert_eq!(is.pop_u64().unwrap(), 9);
/// assert!(is.pop_u8().is_err()); // exhausted
/// ```
#[derive(Clone, Debug)]
pub struct IStream<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> IStream<'a> {
    /// Creates a stream over `buf`.
    pub fn new(buf: &'a [u8]) -> IStream<'a> {
        IStream { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::new(Code::BadMessage).with_msg("truncated message"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_i64(&mut self) -> Result<i64> {
        let s = self.take(8)?;
        Ok(i64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_bool(&mut self) -> Result<bool> {
        Ok(self.pop_u8()? != 0)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted or the bytes
    /// are not valid UTF-8.
    pub fn pop_str(&mut self) -> Result<String> {
        let bytes = self.pop_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::new(Code::BadMessage).with_msg("invalid utf-8"))
    }

    /// Reads a length-prefixed byte slice (borrowed from the message).
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] if the stream is exhausted.
    pub fn pop_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.pop_u32()? as usize;
        self.take(len)
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A value with one fixed wire encoding.
///
/// Message types implement it through [`wire!`](crate::wire); the
/// implementations here are the field types those declarations use.
/// `take` never panics: truncated or malformed bytes are
/// [`Code::BadMessage`].
pub trait Wire: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, os: &mut OStream);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns [`Code::BadMessage`] on truncated or malformed bytes.
    fn take(is: &mut IStream<'_>) -> Result<Self>;
}

/// `Wire` for the scalars the streams marshal directly.
macro_rules! wire_scalars {
    ($($t:ty => $push:ident, $pop:ident;)*) => {$(
        impl Wire for $t {
            fn put(&self, os: &mut OStream) {
                os.$push(*self);
            }

            fn take(is: &mut IStream<'_>) -> Result<$t> {
                is.$pop()
            }
        }
    )*};
}

wire_scalars! {
    u8 => push_u8, pop_u8;
    u32 => push_u32, pop_u32;
    u64 => push_u64, pop_u64;
    i64 => push_i64, pop_i64;
    bool => push_bool, pop_bool;
}

impl Wire for String {
    fn put(&self, os: &mut OStream) {
        os.push_str(self);
    }

    fn take(is: &mut IStream<'_>) -> Result<String> {
        is.pop_str()
    }
}

impl Wire for Vec<u8> {
    fn put(&self, os: &mut OStream) {
        os.push_bytes(self);
    }

    fn take(is: &mut IStream<'_>) -> Result<Vec<u8>> {
        Ok(is.pop_bytes()?.to_vec())
    }
}

impl Wire for Perm {
    fn put(&self, os: &mut OStream) {
        os.push_u8(self.bits());
    }

    fn take(is: &mut IStream<'_>) -> Result<Perm> {
        Ok(Perm::from_bits(is.pop_u8()?))
    }
}

/// An error code as a `u32`, where 0 means success (`None`).
impl Wire for Option<Code> {
    fn put(&self, os: &mut OStream) {
        os.push_u32(self.map_or(0, Code::as_raw));
    }

    fn take(is: &mut IStream<'_>) -> Result<Option<Code>> {
        let raw = is.pop_u32()?;
        Ok((raw != 0).then(|| Code::from_raw(raw)))
    }
}

/// Appends a bounded list: a `u32` count, then each element.
pub fn put_list<T: Wire>(items: &[T], os: &mut OStream) {
    os.push_u32(items.len() as u32);
    for item in items {
        item.put(os);
    }
}

/// Reads a list written by [`put_list`] that may hold at most `max`
/// elements.
///
/// # Errors
///
/// Returns [`Code::BadMessage`] when the count exceeds `max` — checked
/// before anything is allocated for it — or an element is malformed.
pub fn take_list<T: Wire>(is: &mut IStream<'_>, max: usize) -> Result<Vec<T>> {
    let n = is.pop_u32()? as usize;
    if n > max {
        return Err(Error::new(Code::BadMessage).with_msg("list exceeds its bound"));
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::take(is)?);
    }
    Ok(items)
}

/// Initial buffer size of a generated `to_bytes`: every fixed-size message
/// fits, so encoding one costs a single allocation.
pub const MSG_CAPACITY: usize = 64;

/// Declares a message type and its wire codec from one field list.
///
/// Fields go on the wire in declaration order, each through its [`Wire`]
/// implementation. A field written `name: Vec<T> [max N]` is a bounded
/// list ([`put_list`]/[`take_list`]). An enum puts its variant's tag first,
/// as the integer type after the enum name; an unknown tag is
/// [`Code::BadMessage`]. Its `name()` is the variant identifier, or the
/// string given after `as`. An enum may name header fields that
/// `to_bytes` takes and `from_bytes` returns ahead of the message.
///
/// The macro emits the type, its [`Wire`] implementation, `to_bytes` and
/// `from_bytes`, and, for an enum, `name()`.
///
/// # Examples
///
/// ```
/// use m3_base::{wire, SelId};
///
/// wire! {
///     #[derive(Clone, Debug, PartialEq, Eq)]
///     pub enum Req: u8 {
///         Ping = 0 as "ping",
///         Grant = 7 { sels: Vec<SelId> [max 4], note: String },
///         Echo = 9(byte: u8),
///     }
/// }
///
/// wire! {
///     #[derive(Debug, PartialEq, Eq)]
///     pub struct Ack {
///         pub ok: bool,
///     }
/// }
///
/// let req = Req::Grant { sels: vec![SelId::new(3)], note: "x".into() };
/// let bytes = req.to_bytes();
/// assert_eq!(bytes, [7, 1, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, b'x']);
/// assert_eq!(Req::from_bytes(&bytes).unwrap(), req);
/// assert_eq!((Req::Ping.name(), req.name()), ("ping", "Grant"));
/// assert_eq!(Ack::from_bytes(&Ack { ok: true }.to_bytes()).unwrap(), Ack { ok: true });
/// ```
#[macro_export]
macro_rules! wire {
    (@put $os:ident, $v:expr) => {
        $crate::marshal::Wire::put($v, $os)
    };
    (@put $os:ident, $v:expr, $max:expr) => {
        $crate::marshal::put_list($v, $os)
    };
    (@take $is:ident, $t:ty) => {
        <$t as $crate::marshal::Wire>::take($is)?
    };
    (@take $is:ident, $t:ty, $max:expr) => {
        $crate::marshal::take_list($is, $max)?
    };
    (@pat $V:ident) => {
        Self::$V
    };
    (@pat $V:ident { $($f:ident)* }) => {
        Self::$V { .. }
    };
    (@pat $V:ident ( $($f:ident)* )) => {
        Self::$V(..)
    };
    (@name $V:ident) => {
        stringify!($V)
    };
    (@name $V:ident $name:literal) => {
        $name
    };
    (@codec $Name:ident []) => {
        impl $Name {
            /// Marshals `self` into message payload bytes.
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut os = $crate::marshal::OStream::with_capacity($crate::marshal::MSG_CAPACITY);
                $crate::marshal::Wire::put(self, &mut os);
                os.into_bytes()
            }

            /// Unmarshals a value from message payload bytes.
            ///
            /// # Errors
            ///
            /// Returns `BadMessage` on truncated or malformed bytes.
            pub fn from_bytes(bytes: &[u8]) -> $crate::error::Result<$Name> {
                $crate::marshal::Wire::take(&mut $crate::marshal::IStream::new(bytes))
            }
        }
    };
    (@codec $Name:ident [$($h:ident: $H:ty),+]) => {
        impl $Name {
            #[doc = concat!("Marshals the message behind its header (", stringify!($($h),+), ").")]
            pub fn to_bytes(&self, $($h: $H),+) -> Vec<u8> {
                let mut os = $crate::marshal::OStream::with_capacity($crate::marshal::MSG_CAPACITY);
                $($crate::marshal::Wire::put(&$h, &mut os);)+
                $crate::marshal::Wire::put(self, &mut os);
                os.into_bytes()
            }

            #[doc = concat!("Unmarshals a message, returning (", stringify!($($h),+), ", message).")]
            ///
            /// # Errors
            ///
            /// Returns `BadMessage` on truncated or malformed bytes.
            pub fn from_bytes(bytes: &[u8]) -> $crate::error::Result<($($H,)+ $Name)> {
                let mut is = $crate::marshal::IStream::new(bytes);
                Ok(($(<$H as $crate::marshal::Wire>::take(&mut is)?,)+ $crate::marshal::Wire::take(&mut is)?))
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $Name:ident: $Tag:ty $(, header($($h:ident: $H:ty),+ $(,)?))? {
            $(
                $(#[$vmeta:meta])*
                $V:ident = $tag:literal $(as $vname:literal)?
                $({ $($(#[$fmeta:meta])* $f:ident: $t:ty $([max $fmax:expr])?),* $(,)? })?
                $(( $($tf:ident: $tt:ty),* $(,)? ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $Name {
            $(
                $(#[$vmeta])*
                $V $({ $($(#[$fmeta])* $f: $t,)* })? $(($($tt),*))?,
            )*
        }

        impl $Name {
            /// The message name, for tracing and diagnostics.
            pub fn name(&self) -> &'static str {
                match self {
                    $($crate::wire!(@pat $V $({$($f)*})? $(($($tf)*))?) => $crate::wire!(@name $V $($vname)?),)*
                }
            }
        }

        impl $crate::marshal::Wire for $Name {
            fn put(&self, os: &mut $crate::marshal::OStream) {
                match self {
                    $(
                        Self::$V $({ $($f),* })? $(($($tf),*))? => {
                            <$Tag as $crate::marshal::Wire>::put(&$tag, os);
                            $($($crate::wire!(@put os, $f $(, $fmax)?);)*)?
                            $($($crate::marshal::Wire::put($tf, os);)*)?
                        }
                    )*
                }
            }

            fn take(is: &mut $crate::marshal::IStream<'_>) -> $crate::error::Result<$Name> {
                Ok(match <$Tag as $crate::marshal::Wire>::take(is)? {
                    $(
                        $tag => Self::$V
                            $({ $($f: $crate::wire!(@take is, $t $(, $fmax)?),)* })?
                            $(($($crate::wire!(@take is, $tt),)*))?,
                    )*
                    _ => {
                        return Err($crate::error::Error::new($crate::error::Code::BadMessage)
                            .with_msg(concat!("unknown ", stringify!($Name), " tag")))
                    }
                })
            }
        }

        $crate::wire!(@codec $Name [$($($h: $H),+)?]);
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $t:ty $([max $fmax:expr])?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Name {
            $($(#[$fmeta])* $fvis $f: $t,)*
        }

        impl $crate::marshal::Wire for $Name {
            fn put(&self, os: &mut $crate::marshal::OStream) {
                $($crate::wire!(@put os, &self.$f $(, $fmax)?);)*
            }

            fn take(is: &mut $crate::marshal::IStream<'_>) -> $crate::error::Result<$Name> {
                Ok($Name {
                    $($f: $crate::wire!(@take is, $t $(, $fmax)?),)*
                })
            }
        }

        $crate::wire!(@codec $Name []);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut os = OStream::new();
        os.push_u8(0xab)
            .push_u32(0xdead_beef)
            .push_u64(u64::MAX)
            .push_i64(-42)
            .push_bool(true)
            .push_str("m3fs")
            .push_bytes(&[1, 2, 3]);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_u8().unwrap(), 0xab);
        assert_eq!(is.pop_u32().unwrap(), 0xdead_beef);
        assert_eq!(is.pop_u64().unwrap(), u64::MAX);
        assert_eq!(is.pop_i64().unwrap(), -42);
        assert!(is.pop_bool().unwrap());
        assert_eq!(is.pop_str().unwrap(), "m3fs");
        assert_eq!(is.pop_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(is.remaining(), 0);
    }

    #[test]
    fn truncated_message_is_an_error_not_a_panic() {
        let mut os = OStream::new();
        os.push_u64(7);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes[..5]);
        assert_eq!(is.pop_u64().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn bogus_string_length_is_an_error() {
        let mut os = OStream::new();
        os.push_u32(1000); // claims 1000 bytes follow
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_str().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut os = OStream::new();
        os.push_bytes(&[0xff, 0xfe]);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert_eq!(is.pop_str().unwrap_err().code(), Code::BadMessage);
    }

    #[test]
    fn empty_stream() {
        let os = OStream::new();
        assert!(os.is_empty());
        assert_eq!(os.len(), 0);
        let bytes = os.into_bytes();
        let mut is = IStream::new(&bytes);
        assert!(is.pop_u8().is_err());
    }
}
