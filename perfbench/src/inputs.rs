//! Seeded inputs. The same seed gives the same inputs; the program
//! under test receives only the generated fields.

use cuszi_datagen::rng::ChaCha8Rng;
use cuszi_datagen::{generate, rtm_series, rtm_snapshot, DatasetKind, Scale};
use cuszi_tensor::{NdArray, Shape};

/// Uniform integer in `0..n`, for workload choices (crop offsets,
/// request kinds, sampling).
pub fn below(rng: &mut ChaCha8Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A named input field.
pub struct Input {
    pub name: String,
    pub data: NdArray<f32>,
}

/// Instances of each dataset in `field-roundtrip`'s rotation.
pub const ROUNDTRIP_INSTANCES: u64 = 3;

/// `field-roundtrip`: the first field of each of the six Small datasets
/// (1.2 to 3.5 MB each), generated at [`ROUNDTRIP_INSTANCES`] sub-seeds
/// (18 fields, 47 MB). One instance per dataset would let a single
/// field's content move the pass's compression ratio by 10% from seed
/// to seed; three average that down.
pub fn roundtrip_fields(seed: u64) -> Vec<Input> {
    (0..ROUNDTRIP_INSTANCES)
        .flat_map(|j| {
            let sub = seed.wrapping_mul(ROUNDTRIP_INSTANCES).wrapping_add(j);
            DatasetKind::ALL.iter().map(move |&kind| {
                let f = generate(kind, Scale::Small, sub).fields.swap_remove(0);
                Input {
                    name: format!("{}/{}#{sub}", kind.name(), f.name),
                    data: f.data,
                }
            })
        })
        .collect()
}

/// RTM snapshots stacked along z for `slab-stream`.
pub const TALL_SNAPSHOTS: usize = 8;

/// `slab-stream`'s tall field: [`TALL_SNAPSHOTS`] seeded RTM snapshots
/// stacked along z, 896 x 112 x 59 (23.7 MB). Timesteps start in
/// 1500..2000, where the wavefronts fill the domain, so every seed
/// gives a field of similar complexity.
pub fn tall_field(seed: u64) -> NdArray<f32> {
    let start = 1500 + (seed % 500) as u32;
    let snaps = rtm_series(Scale::Small, start, 40, TALL_SNAPSHOTS, seed);
    let [nz, ny, nx] = Scale::Small.shape(DatasetKind::Rtm).dims3();
    let mut v = Vec::with_capacity(TALL_SNAPSHOTS * nz * ny * nx);
    for s in &snaps {
        v.extend_from_slice(s.data.as_slice());
    }
    NdArray::from_vec(Shape::d3(TALL_SNAPSHOTS * nz, ny, nx), v)
}

/// `slab-stream`'s container input: every field of the S3D dataset
/// (four 96^3 fields, 14.2 MB).
pub fn container_fields(seed: u64) -> Vec<Input> {
    generate(DatasetKind::S3d, Scale::Small, seed)
        .fields
        .into_iter()
        .map(|f| Input {
            name: f.name.to_string(),
            data: f.data,
        })
        .collect()
}

/// A cube cut out of one of the serve sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crop {
    pub source: usize,
    pub n: usize,
    pub off: [usize; 3],
}

impl Crop {
    /// A crop of edge `n` at a seeded offset inside `source`.
    pub fn random(rng: &mut ChaCha8Rng, source: usize, n: usize, dims: [usize; 3]) -> Crop {
        let off = [0, 1, 2].map(|a| below(rng, dims[a] - n + 1));
        Crop { source, n, off }
    }

    pub fn cut(&self, sources: &[NdArray<f32>]) -> NdArray<f32> {
        let src = &sources[self.source];
        let [oz, oy, ox] = self.off;
        NdArray::from_fn(Shape::d3(self.n, self.n, self.n), |z, y, x| {
            src.get3(oz + z, oy + y, ox + x)
        })
    }
}

/// `serve-mixed`'s sources: one RTM snapshot per tenant, each with its
/// own source geometry and a seeded timestep in 1500..2500 (wavefronts
/// fill the domain, as in [`tall_field`]). Requests crop 32^3 and 48^3
/// cubes out of them.
pub fn serve_sources(seed: u64, tenants: usize) -> Vec<NdArray<f32>> {
    let shape = Scale::Small.shape(DatasetKind::Rtm);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..tenants as u64)
        .map(|t| {
            let geometry = seed.wrapping_mul(tenants as u64).wrapping_add(t);
            rtm_snapshot(shape, 1500 + below(&mut rng, 1000) as u32, geometry)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crops_stay_inside_the_source() {
        let mut r = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let c = Crop::random(&mut r, 0, 48, [112, 112, 59]);
            assert!(c.off[0] + 48 <= 112 && c.off[1] + 48 <= 112 && c.off[2] + 48 <= 59);
        }
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let a = roundtrip_fields(11);
        let b = roundtrip_fields(11);
        let c = roundtrip_fields(12);
        assert_eq!(a.len(), 18);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.data.as_slice(), y.data.as_slice(), "{}", x.name);
            assert_ne!(x.data.as_slice(), z.data.as_slice(), "{}", x.name);
        }
        let (t1, t2) = (tall_field(11), tall_field(12));
        assert_eq!(t1.shape(), Shape::d3(896, 112, 59));
        assert_eq!(t1.as_slice(), tall_field(11).as_slice());
        assert_ne!(t1.as_slice(), t2.as_slice());
        assert_ne!(
            serve_sources(11, 2)[1].as_slice(),
            serve_sources(12, 2)[1].as_slice()
        );
        assert_eq!(
            serve_sources(11, 2)[1].as_slice(),
            serve_sources(11, 2)[1].as_slice()
        );
    }
}
