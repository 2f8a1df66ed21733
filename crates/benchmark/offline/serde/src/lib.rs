//! Offline stand-in for `serde`: the two traits exist so that the workspace
//! crates' `#[derive(Serialize, Deserialize)]` and trait bounds compile, but
//! nothing is ever serialized through them (see `../../README.md`).

/// Marker: every type "serializes" (no methods; `serde_json` stub refuses).
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "deserializes" (no methods; `serde_json` stub refuses).
pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub use super::Deserialize;
    /// Marker mirroring `serde::de::DeserializeOwned`.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
