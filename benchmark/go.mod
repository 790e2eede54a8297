module ulixes/benchmark

go 1.22

require ulixes v0.0.0

replace ulixes => ../
