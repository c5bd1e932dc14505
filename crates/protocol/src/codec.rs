//! Little-endian byte codec primitives.

use bytes::{Buf, BufMut};
use parquake_math::vec3::vec3;
use parquake_math::Vec3;

/// Decoding failure. The enclosing datagram should be dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the field needs.
    Truncated,
    /// Unknown discriminant byte for the given type.
    BadTag(&'static str, u8),
    /// A length prefix exceeds protocol limits.
    BadLength(&'static str, usize),
    /// Leftover bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "datagram truncated"),
            CodecError::BadTag(what, v) => write!(f, "bad {what} tag {v}"),
            CodecError::BadLength(what, v) => write!(f, "bad {what} length {v}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Types that serialize themselves onto a byte buffer.
pub trait Encode {
    /// Exact number of bytes [`Encode::encode`] appends.
    fn wire_len(&self) -> usize;

    /// Append the encoding to `out`, reserving [`Encode::wire_len`]
    /// bytes up front so one message costs `out` at most one growth.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer of exactly the wire
    /// length (the reservation `encode` makes on an empty `Vec`).
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        self.encode(&mut v);
        debug_assert_eq!(v.len(), self.wire_len(), "wire_len out of step with encode");
        v
    }
}

/// A fixed-size run of fields assembled on the stack and appended to
/// the output with a single `extend_from_slice`, instead of one
/// capacity check and length update per field.
pub(crate) struct Fixed<const N: usize> {
    buf: [u8; N],
    at: usize,
}

impl<const N: usize> Fixed<N> {
    #[inline]
    pub(crate) fn new() -> Fixed<N> {
        Fixed { buf: [0; N], at: 0 }
    }

    #[inline]
    fn put<const K: usize>(mut self, bytes: [u8; K]) -> Fixed<N> {
        self.buf[self.at..self.at + K].copy_from_slice(&bytes);
        self.at += K;
        self
    }

    #[inline]
    pub(crate) fn u8(self, v: u8) -> Fixed<N> {
        self.put([v])
    }

    #[inline]
    pub(crate) fn u16(self, v: u16) -> Fixed<N> {
        self.put(v.to_le_bytes())
    }

    #[inline]
    pub(crate) fn u32(self, v: u32) -> Fixed<N> {
        self.put(v.to_le_bytes())
    }

    #[inline]
    pub(crate) fn u64(self, v: u64) -> Fixed<N> {
        self.put(v.to_le_bytes())
    }

    #[inline]
    pub(crate) fn f32(self, v: f32) -> Fixed<N> {
        self.put(v.to_le_bytes())
    }

    #[inline]
    pub(crate) fn vec3(self, v: Vec3) -> Fixed<N> {
        self.f32(v.x).f32(v.y).f32(v.z)
    }

    /// Append the `N` bytes; every one of them must have been written.
    #[inline]
    pub(crate) fn finish(self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.at, N, "fixed run not filled");
        out.extend_from_slice(&self.buf);
    }
}

/// Types that parse themselves from a byte slice.
pub trait Decode: Sized {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;

    /// Parse a whole datagram, rejecting trailing bytes.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(v)
        } else {
            Err(CodecError::TrailingBytes(buf.len()))
        }
    }
}

#[inline]
pub fn need(buf: &&[u8], n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

#[inline]
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

#[inline]
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, CodecError> {
    need(buf, 2)?;
    Ok(buf.get_u16_le())
}

#[inline]
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

#[inline]
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CodecError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

#[inline]
pub fn get_f32(buf: &mut &[u8]) -> Result<f32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_f32_le())
}

/// Two's complement, so the bytes are those of the value as `u32`.
#[inline]
pub fn get_i32(buf: &mut &[u8]) -> Result<i32, CodecError> {
    Ok(get_u32(buf)? as i32)
}

/// One byte; anything but 0 is `true`.
#[inline]
pub fn get_bool(buf: &mut &[u8]) -> Result<bool, CodecError> {
    Ok(get_u8(buf)? != 0)
}

#[inline]
pub fn get_vec3(buf: &mut &[u8]) -> Result<Vec3, CodecError> {
    Ok(vec3(get_f32(buf)?, get_f32(buf)?, get_f32(buf)?))
}

#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.put_u8(v);
}

#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.put_u16_le(v);
}

#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.put_u32_le(v);
}

#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.put_u64_le(v);
}

#[inline]
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.put_f32_le(v);
}

#[inline]
pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.put_u32_le(v as u32);
}

#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.put_u8(u8::from(v));
}

#[inline]
pub fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f32(out, v.x);
    put_f32(out, v.y);
    put_f32(out, v.z);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAB);
        put_u16(&mut out, 0x1234);
        put_u32(&mut out, 0xDEADBEEF);
        put_u64(&mut out, 42);
        put_f32(&mut out, -1.5);
        put_i32(&mut out, -7);
        put_bool(&mut out, true);
        put_vec3(&mut out, vec3(1.0, -2.0, 3.5));
        let mut buf = &out[..];
        assert_eq!(get_u8(&mut buf).unwrap(), 0xAB);
        assert_eq!(get_u16(&mut buf).unwrap(), 0x1234);
        assert_eq!(get_u32(&mut buf).unwrap(), 0xDEADBEEF);
        assert_eq!(get_u64(&mut buf).unwrap(), 42);
        assert_eq!(get_f32(&mut buf).unwrap(), -1.5);
        assert_eq!(get_i32(&mut buf).unwrap(), -7);
        assert!(get_bool(&mut buf).unwrap());
        assert_eq!(get_vec3(&mut buf).unwrap(), vec3(1.0, -2.0, 3.5));
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let out = [1u8, 2];
        let mut buf = &out[..];
        assert_eq!(get_u32(&mut buf), Err(CodecError::Truncated));
    }

    #[test]
    fn error_display() {
        assert_eq!(CodecError::Truncated.to_string(), "datagram truncated");
        assert_eq!(
            CodecError::BadTag("message", 9).to_string(),
            "bad message tag 9"
        );
    }
}
