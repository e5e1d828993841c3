module mosaic/benchmark

go 1.22

require mosaic v0.0.0

replace mosaic => ../
