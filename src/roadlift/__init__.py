"""roadlift: geometry, losses, and metrics for roadside monocular 3D
detection, validated against synthetic scenes with exact ground truth.

Each public name is imported from its module (``roadlift.camera_geometry``,
``roadlift.evaluation`` and so on); the package root re-exports nothing."""
