"""slicekit: adaptive image slicing, token compression, and cost verification."""
