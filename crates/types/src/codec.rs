//! The little-endian byte codec shared by the binary IR
//! (`graql_core::ir`) and the wire protocol (`graql_net::proto`).
//!
//! Writers append to a `Vec<u8>` through [`Put`]. Readers consume a
//! `&[u8]` cursor with [`take`] / [`take_array`], which return `None`
//! when too few bytes remain — checked before anything is allocated —
//! and each codec maps that to its own typed error.

/// Appends fixed-width little-endian scalars and length-prefixed strings.
pub trait Put {
    fn put_slice(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// The value's bit pattern, so NaN payloads and `-0.0` survive.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// A `u32` byte length, then the UTF-8 bytes.
    fn put_str(&mut self, s: &str) {
        self.put_u32_le(s.len() as u32);
        self.put_slice(s.as_bytes());
    }
}

impl Put for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Splits the next `n` bytes off `buf`, or `None` if fewer remain.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

/// The next `N` bytes as an array, for `from_le_bytes`.
pub fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    take(buf, N).map(|b| b.try_into().expect("take returned N bytes"))
}
