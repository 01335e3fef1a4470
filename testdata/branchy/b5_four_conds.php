<?php
$r0 = $_COOKIE['theme'];
if ($c0 == 11) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c1 == 22) {
    $r0 = $r0 . '-1';
}
if ($c2 == 33) {
    $r0 = $r0 . '-2';
}
if ($c3 == 44) {
    $r0 = $r0 . '-3';
} else {
    $r0 = htmlspecialchars($r0);
}
echo '<p>' . $r0 . '</p>';
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo $r0;
mysql_query("SELECT v FROM t1 WHERE k='" . $r0 . "'");
echo $r0;
?>
