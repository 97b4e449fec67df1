//! Primitive value codecs shared by every CPDB section ([`crate::bin2`],
//! [`crate::ens`]): LEB128 varints, length-prefixed strings, IEEE-754
//! LE floats, and sparse cost lists whose ascending node ids are
//! delta-coded — which is where most of the size win over XML comes
//! from.
//!
//! Decoding is hardened against hostile input: every length read from
//! the wire is capped by what the remaining bytes could possibly hold
//! (a cost entry is ≥ 9 bytes), so a length-lying prefix cannot make us
//! allocate gigabytes before the first "truncated" error.

use crate::model::DbError;

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &mut &[u8]) -> Result<u64, DbError> {
    let b = *buf;
    // Single-byte fast path: most ids, deltas and counts are < 128.
    if let [first, ..] = b {
        if first & 0x80 == 0 {
            *buf = &b[1..];
            return Ok(*first as u64);
        }
    }
    // Branchless multi-byte fast path: load 8 bytes at once, find the
    // terminator (a clear continuation bit) with one mask + one
    // trailing_zeros, then fold the 7-bit groups with shifts and masks
    // instead of a data-dependent loop. Encodings of 2..=8 bytes (56
    // payload bits — every node id and delta in practice) take this
    // path; 9/10-byte encodings and buffers with < 8 bytes left fall
    // through to the careful loop, which also owns the "truncated" and
    // "overflow" error semantics.
    if b.len() >= 8 {
        let x = u64::from_le_bytes(b[..8].try_into().unwrap());
        let stops = !x & 0x8080_8080_8080_8080;
        if stops != 0 {
            let n = stops.trailing_zeros() as usize / 8 + 1;
            let m = if n == 8 {
                x
            } else {
                x & ((1u64 << (8 * n)) - 1)
            };
            let v = (m & 0x7f)
                | ((m >> 1) & (0x7f << 7))
                | ((m >> 2) & (0x7f << 14))
                | ((m >> 3) & (0x7f << 21))
                | ((m >> 4) & (0x7f << 28))
                | ((m >> 5) & (0x7f << 35))
                | ((m >> 6) & (0x7f << 42))
                | ((m >> 7) & (0x7f << 49));
            *buf = &b[n..];
            return Ok(v);
        }
    }
    get_varint_slow(buf)
}

/// The byte-at-a-time LEB128 loop: reference semantics for the fast
/// path above, and the only decoder for encodings it cannot prove safe
/// (long encodings, short buffer tails).
fn get_varint_slow(buf: &mut &[u8]) -> Result<u64, DbError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(DbError::new("truncated varint"));
        };
        *buf = rest;
        if shift >= 64 {
            return Err(DbError::new("varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Read a count-prefixed length and sanity-cap it: each of the counted
/// items occupies at least `min_item_bytes`, so a count claiming more
/// items than the remaining buffer could hold is corrupt. Rejecting it
/// here keeps `Vec::with_capacity(count)` proportional to the input
/// size instead of trusting an attacker-controlled varint.
pub(crate) fn get_count(
    buf: &mut &[u8],
    min_item_bytes: usize,
    what: &str,
) -> Result<usize, DbError> {
    let n = get_varint(buf)? as usize;
    if n > buf.len() / min_item_bytes.max(1) {
        return Err(DbError::new(format!(
            "{what} count {n} exceeds what {} remaining bytes can hold",
            buf.len()
        )));
    }
    Ok(n)
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_string(buf: &mut &[u8]) -> Result<String, DbError> {
    let len = get_varint(buf)? as usize;
    if buf.len() < len {
        return Err(DbError::new("truncated string"));
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| DbError::new("invalid utf-8 in string"))
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_f64(buf: &mut &[u8]) -> Result<f64, DbError> {
    let Some((bytes, rest)) = buf.split_first_chunk::<8>() else {
        return Err(DbError::new("truncated f64"));
    };
    *buf = rest;
    Ok(f64::from_le_bytes(*bytes))
}

pub(crate) fn put_strings(out: &mut Vec<u8>, items: &[String]) {
    put_varint(out, items.len() as u64);
    for s in items {
        put_string(out, s);
    }
}

pub(crate) fn get_strings(buf: &mut &[u8]) -> Result<Vec<String>, DbError> {
    let n = get_count(buf, 1, "string")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_string(buf)?);
    }
    Ok(out)
}

fn get_u32(buf: &mut &[u8], what: &str) -> Result<u32, DbError> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| DbError::new(format!("{what} out of u32 range")))
}

/// Serialize a sparse cost list: count, then delta-coded ascending node
/// ids with their IEEE-754 LE values.
pub(crate) fn put_costs(out: &mut Vec<u8>, costs: &[(u32, f64)]) {
    put_varint(out, costs.len() as u64);
    let mut prev = 0u32;
    for &(node, v) in costs {
        // Delta coding relies on ascending node ids.
        debug_assert!(node >= prev);
        put_varint(out, (node - prev) as u64);
        put_f64(out, v);
        prev = node;
    }
}

/// Decode a sparse cost list (inverse of [`put_costs`]).
pub(crate) fn get_costs(buf: &mut &[u8]) -> Result<Vec<(u32, f64)>, DbError> {
    // Each entry is ≥ 9 bytes: 1-byte minimum delta varint + 8-byte f64.
    let n_costs = get_count(buf, 9, "cost")?;
    let mut costs = Vec::with_capacity(n_costs);
    let mut prev = 0u32;
    for _ in 0..n_costs {
        let delta = get_u32(buf, "node delta")?;
        let node = prev
            .checked_add(delta)
            .ok_or_else(|| DbError::new("node id overflow"))?;
        let v = get_f64(buf)?;
        costs.push((node, v));
        prev = node;
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut buf = out.as_slice();
            assert_eq!(get_varint(&mut buf).unwrap(), v);
            assert!(buf.is_empty());
        }
    }

    /// The branchless fast path must agree with the byte-at-a-time loop
    /// on every encoding length, at every buffer-tail length (shorter
    /// tails route around the 8-byte load), and on non-canonical
    /// (overlong) encodings.
    #[test]
    fn varint_fast_path_matches_slow_path() {
        let mut values: Vec<u64> = vec![u64::MAX];
        for bits in 0..64 {
            values.push(1u64 << bits);
            values.push((1u64 << bits) - 1);
            values.push((1u64 << bits) | 0x55);
        }
        for &v in &values {
            let mut enc = Vec::new();
            put_varint(&mut enc, v);
            // Vary the padding after the varint so both the >= 8-byte
            // fast path and the short-tail fallback are exercised.
            for pad in 0..10 {
                let mut bytes = enc.clone();
                bytes.extend(std::iter::repeat_n(0xeeu8, pad));
                let mut fast = bytes.as_slice();
                let mut slow = bytes.as_slice();
                assert_eq!(get_varint(&mut fast).unwrap(), v);
                assert_eq!(get_varint_slow(&mut slow).unwrap(), v);
                assert_eq!(fast.len(), slow.len(), "consumed lengths differ for {v}");
            }
        }
        // Overlong encodings (trailing zero groups) decode identically.
        for overlong in [
            vec![0x80u8, 0x00],
            vec![0x80, 0x80, 0x00],
            vec![0xff, 0x80, 0x80, 0x80, 0x00],
        ] {
            let mut fast = overlong.as_slice();
            let mut slow = overlong.as_slice();
            assert_eq!(
                get_varint(&mut fast).unwrap(),
                get_varint_slow(&mut slow).unwrap()
            );
            assert_eq!(fast.len(), slow.len());
        }
        // Truncated and overflowing inputs keep their exact errors.
        let mut t = &[0x80u8, 0x80][..];
        assert!(get_varint(&mut t)
            .unwrap_err()
            .message
            .contains("truncated"));
        let mut o = &[0xffu8; 11][..];
        assert!(get_varint(&mut o).unwrap_err().message.contains("overflow"));
    }

    #[test]
    fn rejects_length_lying_counts_without_huge_allocs() {
        // A tiny buffer claiming 2^40 entries must fail fast on the
        // count check, not attempt a giant reservation.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0u8; 16]);
        for err in [
            get_strings(&mut bytes.as_slice()).unwrap_err(),
            get_costs(&mut bytes.as_slice()).unwrap_err(),
        ] {
            assert!(err.message.contains("count"), "got: {}", err.message);
        }
    }
}
