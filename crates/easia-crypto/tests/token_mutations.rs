//! Mutation property of the DATALINK access token: every reader of a
//! token a client hands back — `TokenIssuer::decode`, `verify`, and
//! `DatalinkUrl::parse_tokenized` on the URL that carries it — gives a
//! typed answer on any string, never a panic; a token changed in any one
//! character is refused, never accepted; and whatever payload bytes carry
//! a good MAC decode to a token or to `TokenError::Malformed`.
//!
//! The tokens are real ones, issued over hosts and paths of every shape
//! (multi-byte characters, `;`, empty paths), for both scopes and any
//! expiry. An issued token decodes back to what was issued, and a URL
//! spliced with it parses back to the token and the linked URL.

use easia_crypto::{base64_encode, hmac_sha256, TokenError, TokenIssuer, TokenScope};
use easia_datalink::DatalinkUrl;
use proptest::prelude::*;

const KEY: &[u8] = b"archive-shared-secret";
/// Bytes of the MAC a token's wire form ends with.
const MAC_LEN: usize = 16;
/// Every character of the token alphabet, and some that are not in it.
const SUBSTITUTES: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_=+/;. é";

fn issuer() -> TokenIssuer {
    TokenIssuer::new(KEY, 3600)
}

fn scope(write: bool) -> TokenScope {
    match write {
        true => TokenScope::Write,
        false => TokenScope::Read,
    }
}

/// A token whose wire form is `payload` under a good MAC.
fn signed(payload: &[u8]) -> String {
    let mut wire = payload.to_vec();
    wire.extend_from_slice(&hmac_sha256(KEY, payload)[..MAC_LEN]);
    base64_encode(&wire)
}

proptest! {
    #[test]
    fn arbitrary_strings_are_answered_never_a_panic(
        text in "[ -~é€;/]{0,120}",
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        write in any::<bool>(),
    ) {
        let iss = issuer();
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        for s in [text.clone(), lossy, format!("http://fs1{text}"), format!("http://fs1/d/{text};f")] {
            let _ = iss.decode(&s);
            let _ = iss.verify(&s, scope(write), "fs1", "/d/f", 0);
            if let Ok((url, token)) = DatalinkUrl::parse_tokenized(&s) {
                prop_assert!(!url.host.is_empty() && url.path.starts_with('/'), "{url:?}");
                if let Some(token) = token {
                    prop_assert!(iss.decode(&token).is_err(), "{s:?} carries a token");
                }
            }
        }
    }

    #[test]
    fn every_single_character_change_to_a_token_is_refused(
        host in "[a-z0-9.-]{1,12}",
        path in "[a-zé/;._]{0,24}",
        write in any::<bool>(),
        expires in any::<u64>(),
        at in any::<usize>(),
        pick in any::<u64>(),
    ) {
        let iss = issuer();
        let path = format!("/{path}");
        let token = iss.issue_until(scope(write), &host, &path, expires);
        let subs: Vec<char> = SUBSTITUTES.chars().collect();
        // Every position with one substitute, and one position with every
        // substitute.
        let at = at % token.len();
        let changes = (0..token.len())
            .map(|i| (i, subs[(pick as usize).wrapping_add(i * 7) % subs.len()]))
            .chain(subs.iter().map(|&c| (at, c)));
        for (i, c) in changes {
            if token[i..].starts_with(c) {
                continue;
            }
            let changed = format!("{}{c}{}", &token[..i], &token[i + 1..]);
            let decoded = iss.decode(&changed);
            prop_assert!(
                matches!(decoded, Err(TokenError::Malformed | TokenError::BadSignature)),
                "{token} with {c:?} at {i}: {decoded:?}"
            );
            let verified = iss.verify(&changed, scope(write), &host, &path, 0);
            prop_assert!(verified.is_err(), "{token} with {c:?} at {i} verified");
        }
    }

    #[test]
    fn any_signed_payload_is_a_token_or_malformed(
        head in (0u8..3, 0u8..4, any::<u64>(), 0u16..40),
        rest in proptest::collection::vec(any::<u8>(), 0..48),
        ascii in "[ -~é]{0,40}",
        raw in 0u8..4,
    ) {
        let (version, scope_byte, expires, host_len) = head;
        // Mostly a head of the right version and a text body; raw bytes
        // otherwise.
        let payload = match raw {
            0 => rest.clone(),
            _ => {
                let mut p = vec![version.min(1), [b'R', b'W', b'X', 0][scope_byte as usize]];
                p.extend_from_slice(&expires.to_be_bytes());
                p.extend_from_slice(&host_len.to_be_bytes());
                p.extend_from_slice(if raw == 1 { &rest } else { ascii.as_bytes() });
                p
            }
        };
        let token = signed(&payload);
        match issuer().decode(&token) {
            // What decodes is read back from the payload exactly.
            Ok(t) => {
                let again = issuer().issue_until(t.scope, &t.host, &t.path, t.expires_at);
                prop_assert!(again == token, "{t:?} from {payload:?}");
            }
            Err(e) => prop_assert!(e == TokenError::Malformed, "{payload:?}: {e:?}"),
        }
    }

    #[test]
    fn an_issued_token_decodes_and_its_url_parses_back(
        host in "[a-z0-9.-]{1,12}",
        dir in "[a-zé_/]{0,16}",
        file in "[a-z0-9é._]{1,12}",
        write in any::<bool>(),
        now in 0u64..1_000_000_000,
    ) {
        let iss = issuer();
        let path = format!("/{dir}/{file}");
        let token = iss.issue(scope(write), &host, &path, now);
        let t = iss.decode(&token).unwrap();
        prop_assert!(
            t.scope == scope(write) && t.host == host && t.path == path,
            "{t:?}"
        );
        prop_assert!(t.expires_at == now + iss.ttl_secs());
        prop_assert!(iss.verify(&token, scope(write), &host, &path, now).is_ok());
        let url = DatalinkUrl::parse(&format!("http://{host}{path}")).unwrap();
        let (back, carried) = DatalinkUrl::parse_tokenized(&url.to_tokenized(&token)).unwrap();
        prop_assert!(back == url, "{back:?} for {url:?}");
        prop_assert!(carried.as_deref() == Some(token.as_str()));
    }
}
