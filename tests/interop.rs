//! Interoperability integration tests: text layouts, polygons,
//! checkpoints and the flow guards, exercised across crates.

use gan_opc::core::{FlowConfig, GanOpcFlow, Generator};
use gan_opc::geometry::polygon::Polygon;
use gan_opc::geometry::textfmt;
use gan_opc::geometry::{Layout, Rect};
use gan_opc::litho::{Field, LithoModel, OpticalConfig};

fn small_litho(size: usize) -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / size as f64);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 6;
    LithoModel::new(cfg, size, size).unwrap()
}

#[test]
fn text_layout_feeds_the_gan_flow() {
    // A user-authored clip with a polygon, loaded from the text format and
    // pushed through the GAN-OPC flow.
    let text = "\
frame 0 0 2048 2048
rect 400 300 480 1500
poly 800,300 1200,300 1200,380 880,380 880,1500 800,1500
";
    let clip = textfmt::parse_layout(text).unwrap();
    assert_eq!(clip.shapes().len(), 3);

    let mut fcfg = FlowConfig::fast();
    fcfg.refinement.max_iterations = 10;
    let mut flow = GanOpcFlow::new(fcfg).unwrap();
    let target: Field = clip.rasterize_raster(64, 64).binarize(0.5);
    let flow_result = flow.optimize(&target).unwrap();
    assert!(flow_result.l2_nm2.is_finite());
}

#[test]
fn polygon_and_rect_representations_print_identically() {
    // The same L-shape as a polygon vs as two rects must rasterize and
    // print identically.
    let poly = Polygon::new(vec![
        (400, 300),
        (1200, 300),
        (1200, 380),
        (480, 380),
        (480, 1500),
        (400, 1500),
    ])
    .unwrap();
    let mut as_poly = Layout::new(Rect::new(0, 0, 2048, 2048));
    as_poly.push_polygon(&poly);
    let mut as_rects = Layout::new(Rect::new(0, 0, 2048, 2048));
    as_rects.push(Rect::new(400, 300, 1200, 380));
    as_rects.push(Rect::new(400, 380, 480, 1500));

    assert_eq!(as_poly.pattern_area(), as_rects.pattern_area());
    let ra = as_poly.rasterize_raster(64, 64);
    let rb = as_rects.rasterize_raster(64, 64);
    assert_eq!(ra, rb);
    let model = small_litho(64);
    assert_eq!(model.print_nominal(&ra), model.print_nominal(&rb));
}

#[test]
fn flow_halo_removes_far_field_generator_artifacts() {
    // Feed the refinement a target with a single wire; with the halo on,
    // the generator_mask (reported pre-refinement) must be empty far away
    // from it regardless of what the untrained generator emitted.
    let mut cfg = FlowConfig::fast();
    cfg.refinement.max_iterations = 4;
    cfg.mask_halo_nm = Some(150.0);
    let mut flow = GanOpcFlow::new(cfg).unwrap();
    let mut target = Field::zeros(64, 64);
    for y in 24..40 {
        for x in 30..34 {
            target.set(y, x, 1.0);
        }
    }
    let result = flow.optimize(&target).unwrap();
    // 150 nm halo at 32 nm/px is ~5 px; pixels 15+ px away must be zero.
    for y in 0..8 {
        for x in 0..8 {
            assert_eq!(
                result.generator_mask.get(y, x),
                0.0,
                "artifact survived the halo at ({y},{x})"
            );
        }
    }
    // Feature floor: every target pixel is seeded in the refinement input.
    for y in 24..40 {
        for x in 30..34 {
            assert!(result.generator_mask.get(y, x) >= 0.6);
        }
    }
}

#[test]
fn generator_checkpoint_file_roundtrip() {
    let dir = std::env::temp_dir().join("ganopc-interop-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen.ckpt");

    let mut original = Generator::new(32, 4, 77);
    // Nudge batch-norm state so buffers matter.
    let x = gan_opc::nn::init::uniform(&[2, 1, 32, 32], 0.0, 1.0, 5);
    let _ = original.forward(&x, true);
    original.save(&path).unwrap();
    // The file is the v2 container: magic, then version 2.
    assert_eq!(std::fs::read(&path).unwrap()[8..12], 2u32.to_le_bytes());

    let mut restored = Generator::new(32, 4, 123);
    restored.load(&path).unwrap();
    assert_eq!(restored.forward(&x, false), original.forward(&x, false));

    // Mismatched architectures are rejected.
    let mut wrong = Generator::new(16, 4, 0);
    assert!(wrong.load(&path).is_err());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v1_generator_file_loads() {
    // Generator files from the older v1 writer (a bare tensor list) still
    // load: the reader files their tensors under the "params" section.
    let dir = std::env::temp_dir().join("ganopc-interop-ckpt-v1");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gen-v1.ckpt");

    let mut original = Generator::new(32, 4, 78);
    let x = gan_opc::nn::init::uniform(&[2, 1, 32, 32], 0.0, 1.0, 6);
    let _ = original.forward(&x, true);
    let v1 = gan_opc::nn::checkpoint::to_bytes(&original.export_params());
    std::fs::write(&path, v1).unwrap();

    let mut restored = Generator::new(32, 4, 124);
    restored.load(&path).unwrap();
    assert_eq!(restored.forward(&x, false), original.forward(&x, false));
    std::fs::remove_file(&path).unwrap();
}
