module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
