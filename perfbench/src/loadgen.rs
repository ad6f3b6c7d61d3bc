//! Open-loop load generator: one thread, non-blocking `std` sockets.
//!
//! Request `i` is due at `i / rate` seconds after the start, whether or not
//! earlier requests were answered, and its latency runs from that due time
//! to the arrival of its response line. A stall in the server therefore
//! shows in every request that came due during it, not only in the one it
//! hit. How late the generator itself ran is reported as `late_ms` per
//! request, and `backlog_max` counts due requests not yet handed to the
//! kernel. A connection is served one request at a time, so each request
//! also gets a service latency: from when the daemon could first take it
//! (it was written and the connection's previous response had arrived) to
//! its response.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one open-loop pass observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per request: milliseconds from due time to response arrival, `None`
    /// when no response arrived before the drain limit.
    pub latency_ms: Vec<Option<f64>>,
    /// Per request: milliseconds from the later of its write and the
    /// arrival of the previous response on its connection to its own
    /// response, `None` when no response arrived.
    pub service_ms: Vec<Option<f64>>,
    /// Per request: the response line (without the newline).
    pub responses: Vec<Option<String>>,
    /// Per request: milliseconds between due time and the moment its last
    /// byte was written to the socket.
    pub late_ms: Vec<f64>,
    /// Most due requests ever waiting to be written at once.
    pub backlog_max: usize,
    /// Seconds from the first due time until the last response or the
    /// drain limit.
    pub wall_s: f64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    /// `(request index, end offset in out)` of requests not fully written.
    pending: Vec<(usize, usize)>,
    inbuf: Vec<u8>,
    /// Arrival of the latest response on this connection.
    last_arrival: Duration,
}

/// Sends `lines[i]` (one request each, newline-terminated, carrying the
/// decimal id `id_base + i`) to `addr` at `rate` requests per second, spread
/// round-robin over `conns` connections, and collects responses until all
/// arrived or `drain` has passed after the last due time.
pub fn run(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    lines: &[String],
    id_base: usize,
    drain: Duration,
) -> std::io::Result<Outcome> {
    let n = lines.len();
    let mut cs = Vec::new();
    for _ in 0..conns.max(1) {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        cs.push(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            pending: Vec::new(),
            inbuf: Vec::new(),
            last_arrival: Duration::ZERO,
        });
    }
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut out = Outcome {
        latency_ms: vec![None; n],
        service_ms: vec![None; n],
        responses: vec![None; n],
        late_ms: vec![0.0; n],
        ..Outcome::default()
    };
    let mut received = 0usize;
    let mut next = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    let last_due = due(n.saturating_sub(1));
    let t0 = Instant::now();
    let mut last_arrival = Duration::ZERO;
    while received < n {
        let now = t0.elapsed();
        if now > last_due + drain {
            break;
        }
        let mut progressed = false;
        while next < n && due(next) <= now {
            let k = next % cs.len();
            let c = &mut cs[k];
            c.out.extend_from_slice(lines[next].as_bytes());
            c.pending.push((next, c.out.len()));
            next += 1;
            progressed = true;
        }
        let backlog: usize = cs.iter().map(|c| c.pending.len()).sum();
        out.backlog_max = out.backlog_max.max(backlog);
        for c in &mut cs {
            while c.written < c.out.len() {
                match c.stream.write(&c.out[c.written..]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(k) => {
                        c.written += k;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let sent = t0.elapsed();
            let done = c
                .pending
                .iter()
                .take_while(|&&(_, end)| end <= c.written)
                .count();
            for (i, _) in c.pending.drain(..done) {
                out.late_ms[i] = (sent.saturating_sub(due(i))).as_secs_f64() * 1e3;
            }
            if c.pending.is_empty() && c.written == c.out.len() {
                c.out.clear();
                c.written = 0;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(k) => {
                        c.inbuf.extend_from_slice(&buf[..k]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let arrived = t0.elapsed();
            let mut start = 0;
            while let Some(nl) = c.inbuf[start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&c.inbuf[start..start + nl]).into_owned();
                start += nl + 1;
                let id = crate::check::response_id(&line)
                    .and_then(|s| s.parse::<usize>().ok())
                    .and_then(|id| id.checked_sub(id_base));
                if let Some(i) = id.filter(|&i| i < n && out.responses[i].is_none()) {
                    out.latency_ms[i] = Some(arrived.saturating_sub(due(i)).as_secs_f64() * 1e3);
                    let written = due(i) + Duration::from_secs_f64(out.late_ms[i] / 1e3);
                    let start = written.max(c.last_arrival);
                    out.service_ms[i] = Some(arrived.saturating_sub(start).as_secs_f64() * 1e3);
                    c.last_arrival = arrived;
                    out.responses[i] = Some(line);
                    received += 1;
                    last_arrival = arrived;
                }
            }
            c.inbuf.drain(..start);
        }
        if !progressed {
            // Sleeping (not spinning) keeps the generator off the cores
            // the server's workers need; the resolution this costs is
            // visible in `late_ms`.
            let wait = if next < n {
                due(next).saturating_sub(t0.elapsed())
            } else {
                Duration::MAX
            };
            std::thread::sleep(wait.min(Duration::from_micros(100)));
        }
    }
    out.wall_s = if received == n {
        last_arrival.as_secs_f64()
    } else {
        t0.elapsed().as_secs_f64()
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection stub that answers each request line at once,
    /// except that it stalls `stall` before answering request `stall_at`.
    fn stub(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut answered = 0;
            for line in BufReader::new(conn).lines() {
                let line = line.unwrap();
                let id = crate::check::response_id(&line).unwrap().to_string();
                if id.parse::<usize>().unwrap() == stall_at {
                    std::thread::sleep(stall);
                }
                writeln!(writer, "{{\"id\":\"{id}\",\"status\":\"ok\"}}").unwrap();
                answered += 1;
            }
            answered
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_delays_every_request_that_came_due_during_it() {
        let stall = Duration::from_millis(300);
        let (addr, handle) = stub(5, stall);
        let lines: Vec<String> = (0..40)
            .map(|i| format!("{{\"op\":\"ping\",\"id\":\"{i}\"}}\n"))
            .collect();
        // 100 requests/s: request i is due at 10·i ms.
        let out = run(addr, 1, 100.0, &lines, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(handle.join().unwrap(), 40);
        let lat: Vec<f64> = out.latency_ms.iter().map(|l| l.unwrap()).collect();
        // Request 5 waited out the stall itself; requests due during the
        // stall (6 at 60 ms, 20 at 200 ms) wait for its end at ~350 ms.
        assert!(lat[5] >= 300.0, "stalled request: {} ms", lat[5]);
        assert!(lat[6] >= 280.0, "next request: {} ms", lat[6]);
        assert!(lat[20] >= 140.0, "request due mid-stall: {} ms", lat[20]);
        // Requests before the stall were answered promptly.
        assert!(lat[..5].iter().all(|&l| l < 100.0), "{:?}", &lat[..5]);
        assert!(
            out.late_ms.iter().all(|&l| l < 100.0),
            "the generator kept its schedule"
        );
        assert!(out.responses.iter().all(Option::is_some));
        // The service latency charges the stall to the request it hit,
        // not to the ones that queued behind it on the connection.
        let svc: Vec<f64> = out.service_ms.iter().map(|l| l.unwrap()).collect();
        assert!(svc[5] >= 300.0, "stalled request: {} ms", svc[5]);
        assert!(svc[6] < 100.0, "next request: {} ms", svc[6]);
        assert!(svc[20] < 100.0, "request due mid-stall: {} ms", svc[20]);
    }
}
