//! Outside-in readings from `/proc`. Every reading is an `Option`: where
//! `/proc` is missing or unreadable the metric is reported as missing,
//! never as 0.
//!
//! Socket traffic is read from the network namespace's counters, not from
//! `/proc/self/io`: the standard library writes to a `TcpStream` with
//! `send(2)`, which `wchar`/`syscw` do not count.

/// Cumulative TCP/IP output of this network namespace: every process of a
/// TCP world (coordinator and `munin-node` children) over loopback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
    /// TCP segments sent (`Tcp: OutSegs`), pure ACKs included.
    pub segments: u64,
    /// IP bytes sent (`IpExt: OutOctets`), TCP/IP headers included.
    pub octets: u64,
}

impl Net {
    pub fn read() -> Option<Net> {
        let snmp = std::fs::read_to_string("/proc/net/snmp").ok()?;
        let netstat = std::fs::read_to_string("/proc/net/netstat").ok()?;
        Some(Net {
            segments: table_field(&snmp, "Tcp:", "OutSegs")?,
            octets: table_field(&netstat, "IpExt:", "OutOctets")?,
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Net) -> Net {
        Net {
            segments: self.segments.saturating_sub(earlier.segments),
            octets: self.octets.saturating_sub(earlier.octets),
        }
    }
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`), in seconds summed over CPUs.
/// Always 0 on bare metal.
pub fn cpu_steal_s() -> Option<f64> {
    /// `/proc/stat` clock ticks per second (USER_HZ, 100 on Linux).
    const TICKS_PER_S: f64 = 100.0;
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / TICKS_PER_S)
}

impl std::ops::Add for Net {
    type Output = Net;

    fn add(self, other: Net) -> Net {
        Net { segments: self.segments + other.segments, octets: self.octets + other.octets }
    }
}

/// Peak resident set size of this process (`VmHWM`, children excluded),
/// in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line["VmHWM:".len()..].split_whitespace().next()?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// A value from a `/proc/net` table, where a line `<prefix> name name ...`
/// is followed by a line `<prefix> value value ...`.
fn table_field(text: &str, prefix: &str, name: &str) -> Option<u64> {
    let mut rows = text.lines().filter(|l| l.starts_with(prefix));
    let names = rows.next()?;
    let values = rows.next()?;
    let col = names.split_whitespace().position(|n| n == name)?;
    values.split_whitespace().nth(col)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_proc_net_tables() {
        let snmp = "Ip: Forwarding\nIp: 1\nTcp: RtoMin InSegs OutSegs\nTcp: 200 10 42\n";
        assert_eq!(table_field(snmp, "Tcp:", "OutSegs"), Some(42));
        assert_eq!(table_field(snmp, "Tcp:", "Missing"), None);
        assert_eq!(table_field(snmp, "Udp:", "OutSegs"), None);
    }
}
