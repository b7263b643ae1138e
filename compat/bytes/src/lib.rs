//! Offline drop-in subset of the `bytes` crate.
//!
//! Backed by plain `Vec<u8>` with an offset cursor instead of refcounted
//! shared buffers — the wire codecs in this workspace only need the
//! reader/writer API, not zero-copy performance.

#![forbid(unsafe_code)]
#![expect(clippy::indexing_slicing, reason = "upstream `bytes` panics likewise")]

use std::ops::Deref;

/// An immutable byte buffer with a consuming read cursor.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    start: usize,
}

impl Bytes {
    /// Wraps a static slice.
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes {
            data: s.to_vec(),
            start: 0,
        }
    }

    /// Remaining length.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the remaining bytes into a fresh vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A sub-buffer of the remaining bytes.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&x) => x,
            Bound::Excluded(&x) => x + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => x + 1,
            Bound::Excluded(&x) => x,
            Bound::Unbounded => self.len(),
        };
        Bytes {
            data: self.as_slice()[lo..hi].to_vec(),
            start: 0,
        }
    }

    /// Splits off and returns the first `n` remaining bytes, advancing
    /// this buffer past them.
    ///
    /// # Panics
    /// Panics if fewer than `n` bytes remain.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to past end");
        let head = self.as_slice()[..n].to_vec();
        self.start += n;
        Bytes {
            data: head,
            start: 0,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, start: 0 }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Reader interface over a consuming buffer.
pub trait Buf {
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Fills `dst` from the front of the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl Buf for Bytes {
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let b = self.take(2);
        u16::from_le_bytes([b[0], b[1]])
    }

    fn get_u32(&mut self) -> u32 {
        let b = self.take(4);
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    fn get_u32_le(&mut self) -> u32 {
        let b = self.take(4);
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let src = self.take(dst.len());
        dst.copy_from_slice(src);
    }
}

/// A growable byte buffer.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Writer interface over a growable buffer.
pub trait BufMut {
    /// Writes one byte.
    fn put_u8(&mut self, v: u8);
    /// Writes a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Writes a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Writes a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.data.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(7);
        w.put_u16_le(0x1234);
        w.put_u32(0xAABBCCDD);
        w.put_u32_le(0x11223344);
        w.put_slice(b"xyz");
        assert_eq!(w.len(), 1 + 2 + 4 + 4 + 3);
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32(), 0xAABBCCDD);
        assert_eq!(r.get_u32_le(), 0x11223344);
        let mut tail = [0u8; 3];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert!(r.is_empty());
    }

    #[test]
    fn split_and_slice() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&*head, &[1, 2]);
        assert_eq!(&*b, &[3, 4, 5]);
        let s = b.slice(..2);
        assert_eq!(&*s, &[3, 4]);
        assert_eq!(b.len(), 3, "slice must not consume");
    }
}
