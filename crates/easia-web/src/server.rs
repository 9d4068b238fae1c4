//! A tiny real HTTP/1.1 server over `std::net`, used by the runnable
//! demo example so the generated interface can be opened in a browser.
//! The simulation experiments never go through real sockets.

use crate::http::{parse_urlencoded, Method, Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Handle one ready-parsed request.
pub type Handler = dyn FnMut(Request) -> Response;

/// The most bytes the request line and headers may take together. A
/// longer head is answered 400 without reading it on, so a peer that
/// never sends a newline cannot grow a line without bound.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// The most bytes a request body may take. A request declaring a longer
/// one is answered 413 without its body being read or its handler run:
/// a form cut short at the cap would be a different form.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Serve `handler` on `addr` (e.g. `127.0.0.1:8080`). Each connection is
/// handled sequentially; returns only on listener failure. `max_requests`
/// (if given) stops the server after that many requests — handy in tests.
pub fn serve(addr: &str, handler: &mut Handler, max_requests: Option<u64>) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let mut served = 0u64;
    for stream in listener.incoming() {
        let mut stream = stream?;
        if let Err(e) = handle_connection(&mut stream, handler) {
            // A malformed request shouldn't kill the server.
            let _ = write_response(&mut stream, &Response::error(400, &e.to_string()));
        }
        served += 1;
        if let Some(max) = max_requests {
            if served >= max {
                break;
            }
        }
    }
    Ok(())
}

fn handle_connection(stream: &mut TcpStream, handler: &mut Handler) -> std::io::Result<()> {
    let peer = stream.try_clone()?;
    let response = match read_request(BufReader::new(peer)) {
        Ok(request) => handler(request),
        Err(refused) => refused,
    };
    write_response(stream, &response)
}

/// Read one request — its line, its headers and its body — from
/// `reader`, or the response that refuses it: 400 for a request that
/// does not parse or breaks off, and for a head past its 16 KiB cap,
/// which is not read on; 413 for a body declared past its 1 MiB cap,
/// which is not read at all. So at most the two caps are read.
pub fn read_request(mut reader: impl BufRead) -> Result<Request, Response> {
    let bad = |e: std::io::Error| Response::error(400, &e.to_string());
    let malformed = |what: &str| Response::error(400, what);
    let mut budget = MAX_HEAD_BYTES;
    let request_line = head_line(&mut reader, &mut budget).map_err(bad)?;
    let mut parts = request_line.split_whitespace();
    let method = (parts.next().and_then(Method::parse)).ok_or_else(|| malformed("bad method"))?;
    let target = parts.next().ok_or_else(|| malformed("bad target"))?;

    // Headers.
    let mut content_length = 0usize;
    let mut session = None;
    loop {
        let line = head_line(&mut reader, &mut budget).map_err(bad)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = (value.parse())
                    .map_err(|_| malformed(&format!("bad Content-Length: {value}")))?;
            } else if name == "cookie" {
                for c in value.split(';') {
                    if let Some((k, v)) = c.trim().split_once('=') {
                        if k == "EASIASESSION" {
                            session = Some(v.to_string());
                        }
                    }
                }
            }
        }
    }
    // Body.
    if content_length > MAX_BODY_BYTES {
        let too_large = format!("request body exceeds {MAX_BODY_BYTES} bytes");
        return Err(Response::error(413, &too_large));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(bad)?;

    let mut request = Request::get(target);
    request.method = method;
    request.session = session;
    if method == Method::Post {
        request.form = parse_urlencoded(&String::from_utf8_lossy(&body));
    }
    Ok(request)
}

/// Read one line of the request head, charged to what is left of its
/// `budget`. A line the budget ends before its newline is an error.
fn head_line(reader: &mut impl BufRead, budget: &mut u64) -> std::io::Result<String> {
    let mut line = String::new();
    *budget -= reader.by_ref().take(*budget).read_line(&mut line)? as u64;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
        ));
    }
    Ok(line)
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        302 => "Found",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        413 => "Content Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        r.status,
        reason,
        r.content_type,
        r.body.len()
    );
    if let Some(loc) = &r.location {
        head.push_str(&format!("Location: {loc}\r\n"));
    }
    if let Some(sess) = &r.set_session {
        head.push_str(&format!("Set-Cookie: EASIASESSION={sess}; Path=/\r\n"));
    }
    if let Some(secs) = r.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    // One write: a connection closed with request bytes still unread is
    // reset, and a body still queued behind its head would be lost.
    let mut out = head.into_bytes();
    out.extend_from_slice(&r.body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream as Client;

    fn send(addr: &str, raw: &str) -> String {
        let mut c = Client::connect(addr).unwrap();
        c.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        c.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_get_and_post() {
        // Bind on an ephemeral port, then serve exactly two requests in
        // a thread.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener); // free it for serve()
        let addr2 = addr.clone();
        let t = std::thread::spawn(move || {
            let mut handler = |req: Request| -> Response {
                match (req.method, req.path.as_str()) {
                    (Method::Get, "/hello") => {
                        Response::html(format!("hi {}", req.param("name").unwrap_or("?")))
                    }
                    (Method::Post, "/echo") => {
                        Response::text(req.param("msg").unwrap_or("").to_string())
                            .with_session("S123")
                    }
                    _ => Response::error(404, "nope"),
                }
            };
            serve(&addr2, &mut handler, Some(3)).unwrap();
        });
        // Give the server a moment to bind.
        std::thread::sleep(std::time::Duration::from_millis(100));

        let out = send(&addr, "GET /hello?name=easia HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("hi easia"));

        let body = "msg=archive+works";
        let out = send(
            &addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(out.contains("archive works"), "{out}");
        assert!(out.contains("Set-Cookie: EASIASESSION=S123"));

        let out = send(&addr, "GET /missing HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        t.join().unwrap();
    }

    /// A peer streaming a 1 MiB header line with no newline gets a 400
    /// once the head passes its cap, and the server serves on.
    #[test]
    fn an_oversized_request_head_is_answered_400() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let addr2 = addr.clone();
        let server = std::thread::spawn(move || {
            let mut handler = |_: Request| Response::text("ok".to_string());
            serve(&addr2, &mut handler, Some(2)).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(100));

        let mut c = Client::connect(&addr).unwrap();
        let mut w = c.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            let mut line = b"GET / HTTP/1.1\r\nX-Long: ".to_vec();
            line.resize(line.len() + (1 << 20), b'a');
            // The server stops reading at the cap: the rest may be refused.
            let _ = w.write_all(&line);
        });
        let mut out = Vec::new();
        let _ = c.read_to_end(&mut out);
        let out = String::from_utf8_lossy(&out);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request"), "{out}");
        assert!(out.contains("request head exceeds 16384 bytes"), "{out}");
        writer.join().unwrap();

        let out = send(&addr, "GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        server.join().unwrap();
    }

    /// Serve `requests` in turn to a handler that echoes the length of
    /// the `code` field it was given; the answers, and how many requests
    /// reached the handler.
    fn serve_counting(requests: &[String]) -> (Vec<String>, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let (addr2, n) = (addr.clone(), requests.len() as u64);
        let server = std::thread::spawn(move || {
            let calls = std::rc::Rc::new(std::cell::Cell::new(0));
            let counted = calls.clone();
            let mut handler = move |req: Request| {
                counted.set(counted.get() + 1);
                Response::text(format!("code {}", req.param("code").unwrap_or("").len()))
            };
            serve(&addr2, &mut handler, Some(n)).unwrap();
            calls.get()
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        let answers = requests.iter().map(|r| send(&addr, r)).collect();
        (answers, server.join().unwrap())
    }

    /// A body declared longer than the cap is answered 413 before any of
    /// it is read, and its handler is not run: an upload's `code` is
    /// never handed over cut short. One at the cap is served whole.
    #[test]
    fn an_oversized_request_body_is_answered_413() {
        let post = |declared: usize, body: &str| {
            format!("POST /op HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n{body}")
        };
        let whole = format!("code={}", "a".repeat(MAX_BODY_BYTES - 5));
        let (answers, calls) = serve_counting(&[
            post(MAX_BODY_BYTES + 1, ""),
            post(whole.len(), &whole),
            post(usize::MAX, ""),
        ]);
        assert!(
            answers[0].starts_with("HTTP/1.1 413 Content Too Large"),
            "{}",
            answers[0]
        );
        assert!(
            answers[0].contains("request body exceeds 1048576 bytes"),
            "{}",
            answers[0]
        );
        assert!(answers[1].starts_with("HTTP/1.1 200 OK"), "{}", answers[1]);
        assert!(
            answers[1].ends_with(&format!("code {}", MAX_BODY_BYTES - 5)),
            "{}",
            answers[1]
        );
        assert!(answers[2].starts_with("HTTP/1.1 413"), "{}", answers[2]);
        assert_eq!(calls, 1, "only the body within the cap reaches the handler");
    }

    /// A `Content-Length` that is not a length is answered 400, and its
    /// handler is not run; it was once read as 0, serving an empty form.
    #[test]
    fn an_unparsable_content_length_is_answered_400() {
        let post = |declared: &str| {
            format!("POST /op HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n")
        };
        let too_long = format!("{}0", usize::MAX);
        let (answers, calls) =
            serve_counting(&[post("ten"), post("-1"), post(&too_long), post("")]);
        for (answer, declared) in answers.iter().zip(["ten", "-1", &too_long, ""]) {
            assert!(
                answer.starts_with("HTTP/1.1 400 Bad Request"),
                "{declared}: {answer}"
            );
            assert!(
                answer.contains("bad Content-Length"),
                "{declared}: {answer}"
            );
        }
        assert_eq!(calls, 0);
    }
}
