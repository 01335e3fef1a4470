<?php
$r0 = $_GET['q'];
if ($c0 == 3) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c1 == 17) {
    $r0 = $r0 . '-1';
}
if ($c2 == 42) {
    $r0 = $r0 . '-2';
} else {
    $r0 = htmlspecialchars($r0);
}
echo $r0;
echo '<p>' . $r0 . '</p>';
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo $r0;
?>
