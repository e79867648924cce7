module graphflow/benchmark

go 1.24

require graphflow v0.0.0

replace graphflow => ../
