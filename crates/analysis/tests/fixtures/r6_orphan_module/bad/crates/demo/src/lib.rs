//! A crate whose `helper` module only tests reach.

pub mod helper;

pub use helper::Widget;
