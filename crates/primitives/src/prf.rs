//! The paper's pseudo-random function `f : {0,1}* × K → {0,1}^256`.
//!
//! A thin, strongly-typed wrapper over HMAC-SHA-256. The schemes use two
//! independent PRFs: `f` maps a keyword to its searchable-representation tag
//! `f_kw(w)`, and `f'` commits to a chain key in Scheme 2. Both are
//! instances of [`Prf`] under domain-separated keys.
//!
//! A [`Prf`] keys its HMAC once, at construction; each evaluation clones
//! that state and hashes only its input, with no allocation.

use crate::hmac::HmacSha256;
use crate::Key256;

/// Output of the PRF — a 32-byte tag.
///
/// Tags are ordered lexicographically, which is what lets the server keep
/// searchable representations in a B+-tree and locate one in `O(log u)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub [u8; 32]);

impl Tag {
    /// View as bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Construct from a byte slice.
    ///
    /// Returns `None` when `bytes.len() != 32`.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        bytes.try_into().ok().map(Tag)
    }

    /// Hex rendering (for logs and debugging only).
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tag({}..)", &self.to_hex()[..12])
    }
}

/// A keyed PRF instance.
#[derive(Clone)]
pub struct Prf {
    /// HMAC keyed under the PRF key, cloned per evaluation.
    mac: HmacSha256,
}

impl Prf {
    /// Instantiate the PRF under `key`.
    #[must_use]
    pub fn new(key: Key256) -> Self {
        Prf {
            mac: HmacSha256::new(&key),
        }
    }

    /// Evaluate `f_k(input)`.
    #[must_use]
    pub fn eval(&self, input: &[u8]) -> Tag {
        let mut mac = self.mac.clone();
        mac.update(input);
        Tag(mac.finalize())
    }

    /// Evaluate over multiple parts with unambiguous (length-prefixed)
    /// encoding, so that `eval_parts(["ab","c"]) != eval_parts(["a","bc"])`:
    /// the MAC of `be64(len(p_0)) ‖ p_0 ‖ be64(len(p_1)) ‖ p_1 ‖ …`.
    #[must_use]
    pub fn eval_parts(&self, parts: &[&[u8]]) -> Tag {
        let mut mac = self.mac.clone();
        for part in parts {
            mac.update(&(part.len() as u64).to_be_bytes());
            mac.update(part);
        }
        Tag(mac.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_key_sensitive() {
        let p1 = Prf::new([1u8; 32]);
        let p2 = Prf::new([2u8; 32]);
        assert_eq!(p1.eval(b"kw"), p1.eval(b"kw"));
        assert_ne!(p1.eval(b"kw"), p2.eval(b"kw"));
        assert_ne!(p1.eval(b"kw"), p1.eval(b"kx"));
    }

    #[test]
    fn parts_encoding_is_unambiguous() {
        let p = Prf::new([3u8; 32]);
        assert_ne!(p.eval_parts(&[b"ab", b"c"]), p.eval_parts(&[b"a", b"bc"]));
        assert_ne!(p.eval_parts(&[b"abc"]), p.eval(b"abc"));
    }

    /// The framing is a wire-visible format: tags computed before the PRF
    /// kept its keyed state must still come out.
    #[test]
    fn parts_tag_is_pinned() {
        let p = Prf::new([3u8; 32]);
        assert_eq!(
            p.eval_parts(&[b"ab", b"c", b""]).to_hex(),
            "f2c74833ff8bc449af7f2d7bef68330e7ab0eeee22d6c2504b3e4f67b52c896e"
        );
    }

    #[test]
    fn tag_ordering_is_lexicographic() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        a[0] = 1;
        b[0] = 2;
        assert!(Tag(a) < Tag(b));
        let mut c = [1u8; 32];
        c[31] = 0;
        let d = [1u8; 32];
        assert!(Tag(c) < Tag(d));
    }

    #[test]
    fn tag_slice_round_trip() {
        let p = Prf::new([9u8; 32]);
        let t = p.eval(b"word");
        let t2 = Tag::from_slice(t.as_bytes()).unwrap();
        assert_eq!(t, t2);
        assert!(Tag::from_slice(&[0u8; 31]).is_none());
    }

    #[test]
    fn debug_is_truncated_hex() {
        let t = Tag([0xabu8; 32]);
        let dbg = format!("{t:?}");
        assert!(dbg.starts_with("Tag(abababababab"));
    }
}
