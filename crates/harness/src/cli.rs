//! Flag parsing shared by the `udpd`, `udp_client` and `repro`
//! binaries: a cursor over `--flag [value]` arguments whose every
//! failure — a value-taking flag given last, an unparsable value, an
//! unknown flag — is a message on stderr and exit status 2, never a
//! panic.

use std::str::FromStr;

pub struct Args {
    bin: &'static str,
    args: std::iter::Skip<std::env::Args>,
    /// The flag most recently returned by [`Args::next_flag`].
    flag: String,
}

impl Args {
    /// The process's arguments; `bin` prefixes every error message.
    pub fn from_env(bin: &'static str) -> Args {
        Args {
            bin,
            args: std::env::args().skip(1),
            flag: String::new(),
        }
    }

    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value, parsed; `what` names the expected
    /// shape in the error message ("a number", "0.0-1.0", …).
    pub fn value<T: FromStr>(&mut self, what: &str) -> T {
        match self.args.next().map(|v| v.parse()) {
            Some(Ok(v)) => v,
            _ => self.die(&format!("{} needs {what}", self.flag)),
        }
    }

    pub fn die(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.bin);
        std::process::exit(2);
    }
}
