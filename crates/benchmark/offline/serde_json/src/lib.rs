//! Offline stand-in for `serde_json`. The benchmark never routes data
//! through it (it has its own JSON writer); the functions exist so the
//! workspace crates compile, and they fail loudly if ever reached.

use std::fmt;

/// The only error this stub produces.
#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serde_json stand-in: {} is not available offline",
            self.0
        )
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string"))
}

pub fn to_string_pretty<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error("to_string_pretty"))
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error("from_str"))
}
