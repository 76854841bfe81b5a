//! # tvmnp-vision
//!
//! The application-showcase layer (paper §4, Fig. 1): synthetic video,
//! classical detectors, and the three-model pipeline of Listing 5.
//!
//! Substitutions (documented in DESIGN.md): the paper feeds real camera
//! video through OpenCV's face detector and pretrained DNNs. Here video is
//! *synthetic* with known ground truth ([`frame`]); face detection is a
//! real template-correlation detector and object localization a real
//! luminance-saliency detector ([`detect`]); the three DNNs run on the
//! compiled BYOC stack for every frame (their simulated latency is what
//! Figs. 4/5 measure), while the *liveness* decision combines the
//! anti-spoofing network's output with a texture-variance feature that is
//! discriminative on the synthetic faces — untrained weights cannot be,
//! and the paper's measured quantity is latency, not accuracy.

pub(crate) mod app;
pub mod detect;
pub mod frame;

pub use app::{
    DroppedStage, FaceResult, FrameResult, Showcase, ShowcaseAssignment, ShowcaseFaults,
    ShowcaseTiming,
};
pub use detect::{iou, luminance_saliency, match_faces, BBox};
pub use frame::{FaceKind, Frame, GtObject, SyntheticVideo};
