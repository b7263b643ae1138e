//! Planar geolocation.
//!
//! The paper's geolocation information is "typically [represented in] the
//! UTM (Universal Transverse Mercator) coordinate system" — i.e. planar
//! kilometre coordinates. We model the world as a flat box in kilometres;
//! at continental scale the projection error is irrelevant to the overlay
//! algorithms under study.

/// A point in planar (UTM-like) kilometre coordinates.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct GeoPoint {
    /// Easting in kilometres.
    pub x_km: f64,
    /// Northing in kilometres.
    pub y_km: f64,
}

impl GeoPoint {
    /// Creates a point.
    pub fn new(x_km: f64, y_km: f64) -> Self {
        GeoPoint { x_km, y_km }
    }

    /// Euclidean distance in kilometres.
    pub fn distance_km(&self, other: &GeoPoint) -> f64 {
        let dx = self.x_km - other.x_km;
        let dy = self.y_km - other.y_km;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Propagation delay in microseconds for a geodesic of `km` kilometres in
/// fibre (speed of light × ~0.67, i.e. ≈ 5 µs/km).
pub fn propagation_delay_us(km: f64) -> u64 {
    (km * 5.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(3.0, 4.0);
        assert_eq!(a.distance_km(&b), 5.0);
        assert_eq!(b.distance_km(&a), 5.0);
        assert_eq!(a.distance_km(&a), 0.0);
    }

    #[test]
    fn propagation_scale() {
        // Transatlantic ~6000 km ≈ 30 ms one-way.
        assert_eq!(propagation_delay_us(6000.0), 30_000);
        assert_eq!(propagation_delay_us(0.0), 0);
    }
}
