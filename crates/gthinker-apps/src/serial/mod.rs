//! Serial mining algorithms used inside tasks (and as single-threaded
//! reference baselines).

pub mod clique;
pub mod kplex;
pub mod matching;
pub mod maximal;
pub mod quasi;
pub mod setenum;
pub mod triangle;
