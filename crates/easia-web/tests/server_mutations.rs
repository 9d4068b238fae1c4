//! Mutation property of the portal server's request read: any bytes
//! through `server::read_request` are a request or a 400 or 413 refusal,
//! never a panic, and what it reads of them stays within the 16 KiB head
//! cap plus the 1 MiB body cap.
//!
//! The bytes are arbitrary, or a well-formed request — a GET with a
//! query and a cookie, or a POSTed form — cut short anywhere or with one
//! byte changed. A whole request reads back as what was sent. Fixed
//! cases stream past each cap: a header line with no end, and a body
//! declared and sent past its cap.

use easia_web::server::read_request;
use easia_web::{Method, Request, Response};
use proptest::prelude::*;

const HEAD_CAP: usize = 16 * 1024;
const BODY_CAP: usize = 1 << 20;

/// Read `bytes`: the request or its refusal, and how many bytes it took.
fn read(bytes: &[u8]) -> (Result<Request, Response>, usize) {
    let mut rest = bytes;
    let read = read_request(&mut rest);
    (read, bytes.len() - rest.len())
}

/// The read of `bytes` is a request or a 400 or 413, and took no more
/// than the two caps.
fn check(bytes: &[u8]) -> Result<Option<Request>, TestCaseError> {
    let (read, taken) = read(bytes);
    prop_assert!(taken <= HEAD_CAP + BODY_CAP, "read {taken} bytes");
    match read {
        Ok(request) => Ok(Some(request)),
        Err(refused) => {
            prop_assert!(
                matches!(refused.status, 400 | 413),
                "refused with {}",
                refused.status
            );
            Ok(None)
        }
    }
}

/// A well-formed request: a GET of `path` with a query and a session
/// cookie, or a POST of `form` to it.
fn request(post: bool, path: &str, form: &str) -> Vec<u8> {
    match post {
        false => {
            format!("GET {path}?{form} HTTP/1.1\r\nHost: x\r\nCookie: a=b; EASIASESSION=S1\r\n\r\n")
        }
        true => format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        ),
    }
    .into_bytes()
}

proptest! {
    #[test]
    fn any_request_bytes_are_read_or_refused_within_the_caps(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        post in any::<bool>(),
        path in "/[a-z/]{0,12}",
        form in "[a-z0-9=&%+]{0,40}",
        cut in any::<usize>(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        check(&raw)?;
        let whole = request(post, &path, &form);
        let read = check(&whole)?;
        prop_assert!(read.is_some(), "a whole request is read");
        let read = read.unwrap();
        let sent = Request::get(&format!("{path}?{form}"));
        prop_assert!(read.path == sent.path);
        prop_assert!(read.method == if post { Method::Post } else { Method::Get });
        match post {
            true => prop_assert!(read.form == sent.query),
            false => {
                prop_assert!(read.query == sent.query);
                prop_assert!(read.session.as_deref() == Some("S1"));
            }
        }
        check(&whole[..cut % (whole.len() + 1)])?;
        let mut flipped = whole.clone();
        let at = flip.0 % whole.len();
        flipped[at] = flip.1;
        check(&flipped)?;
        check(&[&raw[..], &whole[..]].concat())?;
        check(&[&whole[..], &raw[..]].concat())?;
    }
}

/// A header line that never ends is refused once the head passes its
/// cap, and nothing past the cap is read.
#[test]
fn a_head_past_its_cap_is_refused_at_the_cap() {
    let mut bytes = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
    bytes.resize(4 * HEAD_CAP, b'a');
    let (refused, taken) = read(&bytes);
    assert_eq!(refused.map(drop).unwrap_err().status, 400);
    assert_eq!(taken, HEAD_CAP);
}

/// A body declared past its cap is refused unread; one at the cap is
/// read whole, and what follows it is not read.
#[test]
fn a_body_is_read_up_to_its_cap_and_no_further() {
    let head = |len: usize| format!("POST /op HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
    let mut past = head(BODY_CAP + 1).into_bytes();
    past.resize(past.len() + BODY_CAP + 10, b'a');
    let (refused, taken) = read(&past);
    assert_eq!(refused.map(drop).unwrap_err().status, 413);
    assert_eq!(taken, head(BODY_CAP + 1).len());

    let mut at_cap = head(BODY_CAP).into_bytes();
    let head_len = at_cap.len();
    at_cap.extend_from_slice(b"code=");
    at_cap.resize(head_len + BODY_CAP + 10, b'a');
    let (whole, taken) = read(&at_cap);
    let form = whole.unwrap().form;
    assert_eq!(form["code"].len(), BODY_CAP - 5);
    assert_eq!(taken, head_len + BODY_CAP);
}
