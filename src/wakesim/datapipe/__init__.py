"""Beat ingestion, segmentation, spectral features, and quantizer fitting."""
