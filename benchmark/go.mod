module draco/benchmark

go 1.22

require draco v0.0.0

replace draco => ../
