//! CIDR prefixes over IPv6.

use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// An IPv6 CIDR prefix: a network address plus a length in bits (0..=128).
///
/// The network address is always stored in canonical (masked) form, so two
/// `Prefix` values compare equal iff they denote the same address block.
///
/// ```
/// use v6addr::Prefix;
/// let p: Prefix = "2001:db8::/32".parse().unwrap();
/// assert!(p.contains("2001:db8:1234::1".parse().unwrap()));
/// assert!(!p.contains("2001:db9::1".parse().unwrap()));
/// assert_eq!(p.subprefix(48, 5).to_string(), "2001:db8:5::/48");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    network: Ipv6Addr,
    len: u8,
}

impl Prefix {
    /// Create a prefix, masking `addr` down to `len` bits.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} > 128");
        Prefix {
            network: Ipv6Addr::from(u128::from(addr) & Self::mask(len)),
            len,
        }
    }

    /// The bitmask selecting the top `len` bits.
    #[inline]
    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len as u32)
        }
    }

    /// Canonical (masked) network address.
    #[inline]
    pub fn network(&self) -> Ipv6Addr {
        self.network
    }

    /// Prefix length in bits. (`len` mirrors CIDR terminology; a prefix
    /// is never "empty", so no `is_empty` counterpart exists.)
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length (whole-space) prefix.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Does this prefix contain `addr`?
    #[inline]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        u128::from(addr) & Self::mask(self.len) == u128::from(self.network)
    }

    /// Does this prefix fully contain `other` (i.e. `other` is equal to or a
    /// subnet of `self`)?
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && self.contains(other.network)
    }

    /// The enclosing prefix with `len` bits (e.g. the /64 of an address).
    ///
    /// # Panics
    /// Panics if `len > self.len()`.
    pub fn truncate(&self, len: u8) -> Prefix {
        assert!(len <= self.len, "cannot truncate /{} to /{len}", self.len);
        Prefix::new(self.network, len)
    }

    /// The prefix containing `addr` at length `len` — shorthand for
    /// `Prefix::new(addr, len)` with intent made explicit at call sites.
    #[inline]
    pub fn of(addr: Ipv6Addr, len: u8) -> Prefix {
        Prefix::new(addr, len)
    }

    /// Number of addresses in the prefix, saturating at `u128::MAX` for /0.
    pub fn size(&self) -> u128 {
        if self.len == 0 {
            u128::MAX
        } else {
            1u128 << (128 - self.len as u32)
        }
    }

    /// The `i`-th subprefix of length `sub_len`.
    ///
    /// # Panics
    /// Panics if `sub_len` is not longer than `self.len()` or `i` is out of
    /// range for the number of subprefixes.
    pub fn subprefix(&self, sub_len: u8, i: u128) -> Prefix {
        assert!(sub_len > self.len && sub_len <= 128);
        let slots = 1u128
            .checked_shl((sub_len - self.len) as u32)
            .unwrap_or(u128::MAX);
        assert!(i < slots, "subprefix index {i} out of range");
        let base = u128::from(self.network);
        let step = 1u128 << (128 - sub_len as u32);
        Prefix::new(Ipv6Addr::from(base + i * step), sub_len)
    }

    /// Iterate all addresses in the prefix. Only sensible for small
    /// prefixes; panics if the prefix holds more than 2^24 addresses.
    pub fn iter_addresses(&self) -> impl Iterator<Item = Ipv6Addr> {
        assert!(
            self.len >= 104,
            "refusing to enumerate /{} (> 2^24 addresses)",
            self.len
        );
        let base = u128::from(self.network);
        let n = self.size();
        (0..n).map(move |i| Ipv6Addr::from(base + i))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a textual prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrefixError {
    /// Missing the `/len` part.
    MissingLength,
    /// The address part failed to parse.
    BadAddress(String),
    /// The length part failed to parse or exceeded 128.
    BadLength(String),
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrefixError::MissingLength => write!(f, "missing '/length'"),
            ParsePrefixError::BadAddress(s) => write!(f, "bad address: {s}"),
            ParsePrefixError::BadLength(s) => write!(f, "bad length: {s}"),
        }
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(ParsePrefixError::MissingLength)?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| ParsePrefixError::BadAddress(addr.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| ParsePrefixError::BadLength(len.to_string()))?;
        if len > 128 {
            return Err(ParsePrefixError::BadLength(len.to_string()));
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        let x = p("2001:db8::/32");
        assert_eq!(x.to_string(), "2001:db8::/32");
        assert_eq!(x.len(), 32);
    }

    #[test]
    fn parse_canonicalizes() {
        assert_eq!(p("2001:db8::dead:beef/32"), p("2001:db8::/32"));
    }

    #[test]
    fn parse_errors() {
        assert_eq!("2001:db8::".parse::<Prefix>(), Err(ParsePrefixError::MissingLength));
        assert!(matches!("zz/32".parse::<Prefix>(), Err(ParsePrefixError::BadAddress(_))));
        assert!(matches!(
            "2001:db8::/129".parse::<Prefix>(),
            Err(ParsePrefixError::BadLength(_))
        ));
    }

    #[test]
    fn contains() {
        let x = p("2001:db8::/32");
        assert!(x.contains("2001:db8:ffff::1".parse().unwrap()));
        assert!(!x.contains("2001:db9::1".parse().unwrap()));
        // /0 contains everything
        assert!(p("::/0").contains("ffff::".parse().unwrap()));
    }

    #[test]
    fn covers() {
        assert!(p("2001:db8::/32").covers(&p("2001:db8:1::/48")));
        assert!(p("2001:db8::/32").covers(&p("2001:db8::/32")));
        assert!(!p("2001:db8:1::/48").covers(&p("2001:db8::/32")));
        assert!(!p("2001:db8::/32").covers(&p("2001:db9::/48")));
    }

    #[test]
    fn truncate() {
        assert_eq!(p("2001:db8:1234::/48").truncate(32), p("2001:db8::/32"));
    }

    #[test]
    fn size() {
        assert_eq!(p("::/128").size(), 1);
        assert_eq!(p("::/96").size(), 1u128 << 32);
        assert_eq!(p("::/0").size(), u128::MAX);
    }

    #[test]
    fn subprefix() {
        let x = p("2001:db8::/32");
        assert_eq!(x.subprefix(48, 0), p("2001:db8::/48"));
        assert_eq!(x.subprefix(48, 1), p("2001:db8:1::/48"));
        assert_eq!(x.subprefix(48, 0xffff), p("2001:db8:ffff::/48"));
    }

    #[test]
    #[should_panic]
    fn subprefix_out_of_range() {
        p("2001:db8::/32").subprefix(48, 0x1_0000);
    }

    #[test]
    fn iter_addresses() {
        let addrs: Vec<_> = p("2001:db8::/126").iter_addresses().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(addrs[3], "2001:db8::3".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn ordering_groups_by_network_then_len() {
        let mut v = vec![p("2001:db8::/48"), p("2001:db8::/32"), p("2001:db7::/32")];
        v.sort();
        assert_eq!(v, vec![p("2001:db7::/32"), p("2001:db8::/32"), p("2001:db8::/48")]);
    }
}
